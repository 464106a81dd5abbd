"""Golden CLI reports: byte-identical output for fixed inputs.

Each case writes small JSON inputs with integer point labels into a fresh
directory, runs the CLI on a relative file name there (so the argv recorded
in the report is fixed) and compares the sha256 of the report on standard
output with a digest recorded from an earlier build.  A changed digest means
a changed report: either a regression, or a deliberate change that must
record its new digest here and say why.  Every success case must also
replay: ``verify --replay`` of its report re-derives the same results.
"""

import hashlib
import json

import pytest

from scalecover.cli import main


def cycle(n, radii):
    """The n-cycle metric thresholded at the radii."""
    matrix = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    return {"matrix": matrix, "radii": list(radii)}


def discrete(n):
    return {"points": list(range(n)), "scales": [[[i, i] for i in range(n)]],
            "hausdorff": True}


INPUTS = {
    "c6.json": cycle(6, (2, 1)),
    "rotation.json": {"kind": "action", "space": cycle(8, (2, 1, 0)),
                      "generators": [[(i + 2) % 8 for i in range(8)]]},
    "wrap.json": {"kind": "map", "source": cycle(16, (2, 1)), "target": cycle(8, (2, 1)),
                  "assignment": [i % 8 for i in range(16)]},
    "discrete.json": {"kind": "space_tower",
                      "spaces": [discrete(2), discrete(4), discrete(8)],
                      "bondings": [[i // 2 for i in range(4)], [i // 2 for i in range(8)]]},
    "abelian.json": {"kind": "abelian_tower",
                     "groups": [{"rank": 1, "torsion": []}, {"rank": 1, "torsion": [2]},
                                {"rank": 1, "torsion": []}],
                     "matrices": [[[0, 1]], [[1], [3]]],
                     "g": [[1], [1, 2]]},
    # a tampered report: the stored budgets are read before the bad replay
    # field is found, so the error report carries radius 4, not the default
    "tampered.json": {"budgets": {"coset_rows": 100000, "ident_budget": 100000,
                                  "product_bound": 200000, "radius": 4},
                      "replay": 5, "inputs": {}, "results": {}},
}

GOLDEN = {
    ("analyze", "c6.json"):
        "622ffba5d87bfecb1c77fc3b263420e14dec6f2b0a948daefafc60440ae01780",
    ("cover", "c6.json", "--scale", "2", "--basepoint", "0", "--radius", "6"):
        "30b20af6a1e659a90323fbf0019944f1ee3902e32c775f173ce763312a217751",
    ("action", "rotation.json", "--quotient-scale", "2", "--tower"):
        "1ce12952f9d012026530252c65440c974cdc479a66adaf6856f743d1d66848b6",
    ("map", "wrap.json"):
        "bd2dc74273f4f3f731815fb9e5ec18a70c03be13bfedcaf6851b7b489988b226",
    ("quotient", "wrap.json", "--scale", "1"):
        "1e041e0d17ef44c7cbc8077fb37333edd50aeb6a124677241c770a7713ef15b9",
    ("tower", "discrete.json"):
        "23fdd08a88309c5c7e23a68c862807b564d45cc415eaa2a538fa300837e32237",
    ("tower", "abelian.json", "--telescope", "backward"):
        "5102ef0da87e80f211ca528666e44f499aed844c7109f939b5734cf11e3d0319",
    ("verify", "--replay", "tampered.json"):
        "8c5c9e687be598959e9ccdba0905697c2dfdb95b67d2a28664d9ff25b8f0e006",
}


def write_inputs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))


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
