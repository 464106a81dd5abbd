"""Golden CLI reports: byte-identical output for fixed inputs.

Each case writes small JSON and CSV inputs with integer point labels into a
fresh directory, runs the CLI on a relative file name there (so the argv
recorded in the report is fixed) and compares the sha256 of the report on
standard output with a digest recorded from an earlier build.  A changed digest means
a changed report: either a regression, or a deliberate change that must
record its new digest here and say why.  Every success case must also
replay: ``verify --replay`` of its report re-derives the same results.

Every digest was re-recorded for ``scalecover-report/2``: each report's
``schema`` line changed, and the two quotient reports also dropped
``results.fiber_components`` and write ``factorization.quotient`` as its
blocks and g's images instead of whole spaces and maps.  Nothing else in any
report changed.  The two schema-1 quotient reports are kept as
``SCHEMA_1_GOLDEN``, rebuilt by ``schema_1_report`` and replayed.
"""

import contextlib
import hashlib
import io
import itertools
import json

from unittest import mock

import pytest

from scalecover import actions, cli, formats, quotients, rips
from scalecover.cli import main


def cycle(n, radii):
    """The n-cycle metric thresholded at the radii."""
    matrix = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return {"matrix": matrix, "radii": list(radii)}


def s3_cayley():
    """S3 acting by left multiplication on its Cayley graph for a transposition
    and a 3-cycle, with the word metric thresholded at radii (2, 1, 0)."""
    elements = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(elements)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[i] for i in q)

    gens = [(1, 0, 2), (1, 2, 0)]
    steps = gens + [tuple(g.index(i) for i in range(3)) for g in gens]
    length, frontier, d = {(0, 1, 2): 0}, {(0, 1, 2)}, 0
    while frontier:
        d += 1
        frontier = {compose(w, s) for w in frontier for s in steps} - length.keys()
        length.update(dict.fromkeys(frontier, d))
    inverse = {g: tuple(g.index(i) for i in range(3)) for g in elements}
    matrix = [[length[compose(inverse[x], y)] for y in elements] for x in elements]
    left = [[index[compose(g, x)] for x in elements] for g in gens]
    return {"kind": "action", "space": {"matrix": matrix, "radii": [2, 1, 0]},
            "generators": left}


def discrete(n):
    return {"points": list(range(n)), "scales": [[[i, i] for i in range(n)]],
            "hausdorff": True}


INPUTS = {
    "c6.json": cycle(6, (2, 1)),
    # float radii reach the report as each scale's radius and as replay options
    "tri.csv": "0,1,2\n1,0,1.5\n2,1.5,0\n",
    "rotation.json": {"kind": "action", "space": cycle(8, (2, 1, 0)),
                      "generators": [[(i + 2) % 8 for i in range(8)]]},
    # a non-abelian group with two generators
    "s3.json": s3_cayley(),
    # swapping 1 and 2 does not preserve scale 1 = {(0, 1)}: the quotient is
    # taken at its saturation, and the swap fixes 0 and 3, so no scale has
    # bounded small-scale orbits
    "swap.json": {"kind": "action",
                  "space": {"points": [0, 1, 2, 3],
                            "scales": [[[0, 1], [1, 0]] + [[i, i] for i in range(4)],
                                       [[i, i] for i in range(4)]],
                            "hausdorff": True},
                  "generators": [[0, 2, 1, 3]]},
    "wrap.json": {"kind": "map", "source": cycle(16, (2, 1)), "target": cycle(8, (2, 1)),
                  "assignment": [i % 8 for i in range(16)]},
    "discrete.json": {"kind": "space_tower",
                      "spaces": [discrete(2), discrete(4), discrete(8)],
                      "bondings": [[i // 2 for i in range(4)], [i // 2 for i in range(8)]]},
    # a <- ab <- a: the middle stage's image is too big, so the strong ML
    # witness of index 2 is stage 3
    "detour.json": {"kind": "space_tower",
                    "spaces": [discrete(1), discrete(2), discrete(1)],
                    "bondings": [[0, 0], [0]]},
    "abelian.json": {"kind": "abelian_tower",
                     "groups": [{"rank": 1, "torsion": []}, {"rank": 1, "torsion": [2]},
                                {"rank": 1, "torsion": []}],
                     "matrices": [[[0, 1]], [[1], [3]]],
                     "g": [[1], [1, 2]]},
    # doubling on Z/4: the image lattices 2^t Z + 4Z are Z, 2Z, 4Z, 4Z for
    # t = 0..3, so they first repeat at power 3; their ranks agree from power 1
    "z4.json": {"kind": "abelian_tower", "groups": [{"rank": 0, "torsion": [4]}] * 3,
                "matrices": [[[2]], [[2]]], "stabilization": "pattern_repeats"},
    # a tampered report: the stored budgets are read before the bad replay
    # field is found, so the error report carries radius 4, not the default
    "tampered.json": {"budgets": {"coset_rows": 100000, "ident_budget": 100000,
                                  "product_bound": 200000, "radius": 4},
                      "replay": 5, "inputs": {}, "results": {}},
}

GOLDEN = {
    ("analyze", "c6.json"):
        "6a855f40aafc50025fab47d5d7b7469d5cd40ef46f1b0b1b7a2a722ea2556d1d",
    ("analyze", "tri.csv", "--radii", "2.5,1.5"):
        "10ccb90c5a9b11b2540aa95f67e8c954b9b2f676e52586fa0059d5d4c1fb6c1b",
    # a complete, identified cover: its verdict is UCM with witnesses (1, 2)
    ("cover", "c6.json", "--scale", "1", "--basepoint", "0", "--radius", "6"):
        "de76f92fc4e38c8bcd84362035d5253501e885d170426e0ca5c2ce27f97c522d",
    ("cover", "c6.json", "--scale", "2", "--basepoint", "0", "--radius", "6"):
        "42ccdc6146bddf289e5777167e9232ce1f235d617418c27a47effcb471052f26",
    ("action", "rotation.json", "--quotient-scale", "2", "--tower"):
        "a401ee1f0c5d6cb8fec8548e27188ab9a9f7684669c95916ba862c33ad3128bc",
    ("action", "s3.json", "--quotient-scale", "3", "--tower"):
        "9f75fa236bca43ee1ed71468bac8801341ec23fdf1b1550af7639eee6b803b87",
    ("action", "swap.json", "--quotient-scale", "1", "--tower"):
        "5ca846ff7f19f79c8ee481301621dfcb2a899c8375aaf9267c5f38ad8f1260d0",
    ("map", "wrap.json"):
        "c87fa983d5fd702ea41b4c93b2c049a1cfbca6263edb0b832bd4a4d835241175",
    ("quotient", "wrap.json", "--scale", "1"):
        "2ae9af620d92aa6052c547983f947125c5e322b952b424a531fe64f3c3d02da2",
    # the quotient at the source depth is also the factorization's
    ("quotient", "wrap.json", "--scale", "2"):
        "713c29d11a830590752cf1c2864b3812be20044382e9ebf1e93f2a8023a9be8b",
    ("tower", "discrete.json"):
        "4ca5197b1cb7bc1f05ce1d6b918de5a33699b21ca89eb540bb03f1363124da37",
    ("tower", "detour.json"):
        "166ae2629a3aec55a7c428b9fc49ffbb883f154df97cb432c211254e5b1c3cba",
    ("tower", "abelian.json", "--telescope", "backward"):
        "daff3e0692914d56d489cdd373c7c71ef75da7591e8ee06ca390f8b046869170",
    ("tower", "z4.json"):
        "5758f1825ce81f1477e46bda8aa8a64b428a4af14823795d5021be08f4a21402",
    ("verify", "--replay", "tampered.json"):
        "10981b30c21a590cdec97d3083329bb2859de6abe3e403d52091185eb84000a7",
}


# The digests of the two quotient goldens under scalecover-report/1.
SCHEMA_1_GOLDEN = {
    ("quotient", "wrap.json", "--scale", "1"):
        "1e041e0d17ef44c7cbc8077fb37333edd50aeb6a124677241c770a7713ef15b9",
    ("quotient", "wrap.json", "--scale", "2"):
        "6804772ac9bacdfc79ff6cae30d17006251f510cec4067f461247a2fa5d7eb8d",
}


def schema_1_report(argv) -> str:
    """The scalecover-report/1 text of a quotient command, run in the current
    directory and rebuilt from library objects as schema 1 wrote it: the
    blocks once more as ``fiber_components``, and the factorization's
    quotient with its map, space, collapse and induced map (``base``,
    ``space``, ``q``, ``g``) written whole."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    report = json.loads(out.getvalue())
    f = formats.map_from_spec(report["inputs"]["map"])
    results, _ = cli.run_quotient(f, report["replay"]["options"], report["budgets"])
    factorization = results["factorization"]
    old = {name: getattr(factorization, name) for name in (
        "chosen_scale", "fibers_bounded", "g_chain_lifting", "g_generates",
        "preconditions", "quotient", "transverse_scale", "verdict")}
    if factorization.quotient is not None:
        old["quotient"] = {name: getattr(factorization.quotient, name) for name in (
            "base", "blocks", "g", "hypothesis_met", "q", "q_chain_lifting", "scale",
            "singleton_property", "space")}
    results = {**results, "fiber_components": results["quotient"]["blocks"],
               "factorization": old}
    report["schema"] = "scalecover-report/1"
    report["results"] = json.loads(formats.canonical_dumps(results))
    return formats.canonical_dumps(report)


def write_inputs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_report_bytes_match_golden(capsys, monkeypatch, tmp_path, argv):
    write_inputs(monkeypatch, tmp_path)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert json.loads(out)["exit_code"] == code
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(a for a in GOLDEN if a[0] != "verify"), ids=" ".join)
def test_golden_report_replays(capsys, monkeypatch, tmp_path, argv):
    write_inputs(monkeypatch, tmp_path)
    main([*argv, "--out", "report.json"])
    capsys.readouterr()
    code = main(["verify", "--replay", "report.json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert results["results_identical"] is True
    assert results["counterexample_failures"] == []


@pytest.mark.parametrize("argv", sorted(SCHEMA_1_GOLDEN), ids=" ".join)
def test_schema_1_quotient_report_replays(capsys, monkeypatch, tmp_path, argv):
    """A quotient report written under schema 1 replays: verify compares its
    stored results, whole spaces and maps included, with the replayed ones
    written in the schema-1 shape.  One point moved from its block into the
    next one's, everywhere the blocks are written, is drift."""
    write_inputs(monkeypatch, tmp_path)
    text = schema_1_report(argv)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_1_GOLDEN[argv]
    report = json.loads(text)
    blocks = [report["results"]["fiber_components"], report["results"]["quotient"]["blocks"],
              report["results"]["factorization"]["quotient"]["blocks"]["blocks"]]
    (tmp_path / "report.json").write_text(text)
    for first, second, *_ in blocks:
        second.append(first.pop())
    (tmp_path / "moved.json").write_text(json.dumps(report))
    capsys.readouterr()
    for name, identical in (("report.json", True), ("moved.json", False)):
        code = main(["verify", "--replay", name])
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["results_identical"] is identical
        assert code == (0 if identical else 1)



_SCHEMAS = "'scalecover-report/1' or 'scalecover-report/2'"


@pytest.mark.parametrize("path,value,message", [
    (("schema",), None, f"report field schema must be {_SCHEMAS}, got None"),
    (("schema",), "scalecover-report/9",
     f"report field schema must be {_SCHEMAS}, got 'scalecover-report/9'"),
    (("budgets", "bogus"), 5, "report field budgets.bogus is not a budget"),
    (("budgets",), None, "report field budgets.coset_rows is missing"),
    (("budgets", "radius"), None, "report field budgets.radius is missing"),
], ids=["no schema", "schema 9", "extra budget", "no budgets", "no radius"])
def test_bad_schema_or_budgets_do_not_replay(capsys, monkeypatch, tmp_path, path, value,
                                             message):
    """Every golden report, with its schema deleted or unknown, or its
    budgets not exactly the four of cli.BUDGETS, is an input error on
    replay.  A value of None deletes the field."""
    write_inputs(monkeypatch, tmp_path)
    for argv in sorted(a for a in GOLDEN if a[0] != "verify"):
        main([*argv, "--out", "report.json"])
        doc = json.loads((tmp_path / "report.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", "--replay", "edited.json"])
        report = json.loads(capsys.readouterr().out)
        assert code == report["exit_code"] == 3, argv
        assert report["results"]["error"] == f"ParseError: {message}", argv

def wrap_8x30():
    """The 8-fold wrap C240 -> C30 at radii (2, 1), labelled as the benchmark
    labels it: the target's points follow the source's."""
    return {"kind": "map",
            "source": {**cycle(240, (2, 1)), "names": list(range(240))},
            "target": {**cycle(30, (2, 1)), "names": list(range(240, 270))},
            "assignment": [240 + i % 30 for i in range(240)]}


@pytest.mark.parametrize("argv", sorted(a for a in GOLDEN if a[0] == "quotient")
                         + [("quotient", "wrap8x30.json", "--scale", "1")], ids=" ".join)
def test_quotient_results_no_longer_than_inputs(capsys, monkeypatch, tmp_path, argv):
    """A quotient report is linear in its input: its written results are no
    longer than its written inputs."""
    write_inputs(monkeypatch, tmp_path)
    (tmp_path / "wrap8x30.json").write_text(json.dumps(wrap_8x30()))
    assert main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    written = {key: len(formats.canonical_dumps(report[key])) for key in ("inputs", "results")}
    assert written["results"] <= written["inputs"]


def test_rotation_closes_each_group_once(capsys, monkeypatch, tmp_path):
    """The diagnosis, the scale quotient and the tower share one subgroup per
    scale: the rotation closes the group and one subgroup for each of its
    three scales, and no more."""
    write_inputs(monkeypatch, tmp_path)
    with mock.patch.object(actions, "_closure", wraps=actions._closure) as closure:
        assert main(["action", "rotation.json", "--quotient-scale", "2", "--tower"]) == 0
    capsys.readouterr()
    assert closure.call_count == 4


def _map_work(capsys, argv):
    """Run a golden map command and return the work it did: the number of
    pair searches, and the arguments of every one-step lifting test and
    every fiber_e_components call."""
    def counted(name):
        return mock.patch.object(quotients, name, wraps=getattr(quotients, name))

    with counted("breadth_first") as search, counted("_one_step_lifts") as lifts, \
            counted("fiber_e_components") as fibers:
        main(list(argv))
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
    pair_searches = [c for c in search.call_args_list
                     if c.args[1].__qualname__.startswith("_uniqueness_condition.")]
    return (len(pair_searches), [c.args for c in lifts.call_args_list],
            [c.args for c in fibers.call_args_list])


def test_wrap_map_facts_computed_once(capsys, monkeypatch, tmp_path):
    """Each fact about the C16 -> C8 wrap is computed once per command.

    Plain uniqueness at e = j and strong uniqueness at j are one pair search,
    so ``map`` runs one per scale of the source.  ``quotient --scale 2`` asks
    for the fiber quotient the factorization also builds, and builds it
    once.  Chain lifting is checked once for each of f, q and g, where q and
    g are the finest scale's, whose lifting the factorization writes: the
    quotient at scale 1 is built, but its q's lifting is not checked.
    """
    write_inputs(monkeypatch, tmp_path)
    searches, lifts, fibers = _map_work(capsys, ("map", "wrap.json"))
    assert searches == 2
    assert len(lifts) == len(set(lifts)) and len({f for f, _, _ in lifts}) == 1
    assert fibers == []

    searches, lifts, fibers = _map_work(capsys, ("quotient", "wrap.json", "--scale", "2"))
    assert searches == 2
    assert len(lifts) == len(set(lifts)) and len({f for f, _, _ in lifts}) == 3
    assert len(fibers) == len(set(fibers)) == 1

    searches, lifts, fibers = _map_work(capsys, ("quotient", "wrap.json", "--scale", "1"))
    assert len(lifts) == len(set(lifts)) and len({f for f, _, _ in lifts}) == 3
    assert len(fibers) == len(set(fibers)) == 2


@pytest.mark.parametrize("argv", sorted(a for a in GOLDEN if a[0] == "analyze"), ids=" ".join)
def test_analyze_runs_no_word_elimination(capsys, monkeypatch, tmp_path, argv):
    """H1 comes from the sparse abelian elimination: an analyze report runs
    no word-level Tietze reduction, which serves only the word problem."""
    write_inputs(monkeypatch, tmp_path)
    with mock.patch.object(rips, "_simplified", wraps=rips._simplified) as simplified:
        main(list(argv))
    out = capsys.readouterr().out
    assert simplified.call_count == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
