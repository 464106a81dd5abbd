"""Report bytes do not depend on the hash seed when point labels are strings.

Integer labels hash to themselves, so sets of them iterate in the same order
under every ``PYTHONHASHSEED`` and the golden reports cannot show a set-order
leak.  String labels hash differently per seed.  Each command here runs on
string-labelled inputs in two fresh interpreters, under ``PYTHONHASHSEED`` 0
and 1, and the two reports must be byte-identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scalecover

# point order differs from the labels' sort order
NAMES = ["q", "b", "x", "d", "m", "a", "k", "f", "z", "c", "t", "h", "n", "e", "w", "g"]
UPPER = [name.upper() for name in NAMES]


def cycle(n, radii, names):
    """The n-cycle metric thresholded at the radii, with string point names."""
    matrix = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return {"matrix": matrix, "radii": list(radii), "names": names[:n]}


def king_torus(n, names):
    """The n x n king-move torus at one scale, with string point names."""
    pairs = {tuple(sorted((n * i + j, (i + di) % n * n + (j + dj) % n)))
             for i in range(n) for j in range(n)
             for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)}
    listed = [[p, p] for p in names[:n * n]]
    listed += [[names[a], names[b]] for a, b in sorted(pairs)]
    listed += [[names[b], names[a]] for a, b in sorted(pairs)]
    return {"kind": "space", "points": names[:n * n], "scales": [listed],
            "hausdorff": False}


def discrete(names):
    return {"points": names, "scales": [[[p, p] for p in names]], "hausdorff": True}


INPUTS = {
    "c6.json": cycle(6, (2, 1), NAMES),
    # pi1 = Z^2 at scale 1, so vertices share buckets and reach rewriting
    "torus.json": king_torus(4, NAMES),
    "rotation.json": {"kind": "action", "space": cycle(8, (2, 1, 0), NAMES),
                      "generators": [[NAMES[(i + 2) % 8] for i in range(8)]]},
    "wrap.json": {"kind": "map", "source": cycle(16, (2, 1), NAMES),
                  "target": cycle(8, (2, 1), UPPER),
                  "assignment": [UPPER[i % 8] for i in range(16)]},
    "discrete.json": {"kind": "space_tower",
                      "spaces": [discrete(UPPER[:2]), discrete(NAMES[:4]),
                                 discrete(NAMES[8:16])],
                      "bondings": [[UPPER[i // 2] for i in range(4)],
                                   [NAMES[i // 2] for i in range(8)]]},
}

COMMANDS = [
    ["analyze", "c6.json"],
    ["cover", "c6.json", "--scale", "1", "--basepoint", "q", "--radius", "6"],
    ["cover", "c6.json", "--scale", "2", "--basepoint", "q", "--radius", "6"],
    ["cover", "torus.json", "--scale", "1", "--basepoint", "q", "--radius", "4"],
    ["map", "wrap.json"],
    ["quotient", "wrap.json", "--scale", "1"],
    ["action", "rotation.json", "--quotient-scale", "2", "--tower"],
    ["tower", "discrete.json"],
]

RUNNER = """
import contextlib, io, json, sys
from scalecover.cli import main
reports = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    reports.append(out.getvalue())
print(json.dumps(reports))
"""


def run_all(cwd, hash_seed):
    src = str(Path(scalecover.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCALECOVER_")}
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(COMMANDS)],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_reports_do_not_depend_on_hash_seed(tmp_path):
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    first, second = run_all(tmp_path, 0), run_all(tmp_path, 1)
    for argv, a, b in zip(COMMANDS, first, second):
        report = json.loads(a)
        assert "error" not in report["results"], (argv, report["results"])
        assert a == b, argv
