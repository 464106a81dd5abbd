"""Golden CLI reports: byte-identical output for fixed inputs.

Each case writes small JSON and CSV inputs with integer point labels into a
fresh directory, runs the CLI on a relative file name there (so the argv
recorded in the report is fixed) and compares the sha256 of the report on
standard output with a digest recorded from an earlier build.  A changed digest means
a changed report: either a regression, or a deliberate change that must
record its new digest here and say why.  Every success case must also
replay: ``verify --replay`` of its report re-derives the same results.
"""

import hashlib
import itertools
import json

from unittest import mock

import pytest

from scalecover import actions, quotients, rips
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
        "622ffba5d87bfecb1c77fc3b263420e14dec6f2b0a948daefafc60440ae01780",
    ("analyze", "tri.csv", "--radii", "2.5,1.5"):
        "81c640d23ffae8cb8b73336033621ea4c108ffe4287a4157000247353f649ad7",
    # a complete, identified cover: its verdict is UCM with witnesses (1, 2)
    ("cover", "c6.json", "--scale", "1", "--basepoint", "0", "--radius", "6"):
        "218df48363028e1e62b876843251d7cd6452d311619310b7e940c919356fb664",
    ("cover", "c6.json", "--scale", "2", "--basepoint", "0", "--radius", "6"):
        "30b20af6a1e659a90323fbf0019944f1ee3902e32c775f173ce763312a217751",
    ("action", "rotation.json", "--quotient-scale", "2", "--tower"):
        "1ce12952f9d012026530252c65440c974cdc479a66adaf6856f743d1d66848b6",
    ("action", "s3.json", "--quotient-scale", "3", "--tower"):
        "98a8ee1bdde22fb212ebeb0dea7f652d146ce21753303077ecc3a081eb1b96b1",
    ("action", "swap.json", "--quotient-scale", "1", "--tower"):
        "35c371ca2ae0f51feef027d25ee6aceb01f08dcfe708f3ccb8af0bf2d4cf0555",
    ("map", "wrap.json"):
        "bd2dc74273f4f3f731815fb9e5ec18a70c03be13bfedcaf6851b7b489988b226",
    ("quotient", "wrap.json", "--scale", "1"):
        "1e041e0d17ef44c7cbc8077fb37333edd50aeb6a124677241c770a7713ef15b9",
    # the quotient at the source depth is also the factorization's
    ("quotient", "wrap.json", "--scale", "2"):
        "6804772ac9bacdfc79ff6cae30d17006251f510cec4067f461247a2fa5d7eb8d",
    ("tower", "discrete.json"):
        "23fdd08a88309c5c7e23a68c862807b564d45cc415eaa2a538fa300837e32237",
    ("tower", "detour.json"):
        "9dc0ef55d849fd34a78e6fb47179e19c0833b622159b6be640270860e1e9a353",
    ("tower", "abelian.json", "--telescope", "backward"):
        "5102ef0da87e80f211ca528666e44f499aed844c7109f939b5734cf11e3d0319",
    ("tower", "z4.json"):
        "d224fb59b9aaf5c0eca91cf007cb31068ad4f25a01edc367944454d4fb18fbc7",
    ("verify", "--replay", "tampered.json"):
        "8c5c9e687be598959e9ccdba0905697c2dfdb95b67d2a28664d9ff25b8f0e006",
}


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
