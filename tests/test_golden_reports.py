"""Golden CLI reports: byte-identical output for fixed inputs.

Each case writes small JSON and CSV inputs with integer point labels into a
fresh directory, runs the CLI on a relative file name there (so the argv
recorded in the report is fixed) and compares the sha256 of the report on
standard output with a digest recorded from an earlier build.  A changed digest means
a changed report: either a regression, or a deliberate change that must
record its new digest here and say why.  Every success case must also
replay: ``verify --replay`` of its report re-derives the same results.

Every digest was re-recorded for ``scalecover-report/4``: each report's
``schema`` line changed, and its ``budgets`` block lost ``coset_rows``,
which bounded nothing of its own and only ever gave ``ident_budget`` its
value.  Nothing else changed: ``schema_3_report`` puts both back, and the
digest of each rebuilt report is the schema-3 one, kept as
``SCHEMA_3_GOLDEN``.  The two ``rp2s1.json`` goldens are new with schema 4.

Schema 3 had changed each ``schema`` line, every array of JSON scalars
came to stand on one line, and the input spaces came to be written by each
related pair's finest scale (``depth`` and ``pairs``) instead of every
scale's closed neighbourhoods, so ``input_digest`` changed with them.
``schema_2_report`` rebuilds each report as schema 2 wrote it, from its
schema-3 rebuild, and its digest is the schema-2 one, kept as
``SCHEMA_2_GOLDEN``.  Schema 2 had
changed each ``schema`` line from schema 1, and the two quotient reports
also dropped ``results.fiber_components`` and wrote
``factorization.quotient`` as its blocks and g's images instead of whole
spaces and maps.  Their schema-1 digests are kept as ``SCHEMA_1_GOLDEN``,
rebuilt by ``schema_1_report``.  Every rebuilt report replays.
"""

import contextlib
import hashlib
import io
import itertools
import json

from unittest import mock

import pytest

from conftest import rp2_subdivision_space
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


def rp2_wedge_circle():
    """The RP^2 subdivision of conftest with a 4-cycle wedged at its point
    ("v", 1): its points numbered in order, 0 being ("v", 1), and the cycle
    0, 31, 32, 33.  pi_1 is Z * Z/2, so words with letters of both factors
    reach the free-product normal form."""
    rp2 = rp2_subdivision_space()
    index = {p: i for i, p in enumerate(rp2.points)}
    pairs = {tuple(sorted((index[a], index[b]))) for a, b in rp2.sorted_pairs(1)}
    pairs |= {(0, 31), (31, 32), (32, 33), (0, 33)}
    return {"points": list(range(34)), "depth": 1,
            "pairs": [[a, b, 1] for a, b in sorted(pairs)]}


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
    "rp2s1.json": rp2_wedge_circle(),
    # a tampered schema-3 report: the stored budgets are read, and coset_rows
    # dropped, before the bad replay field is found, so the error report
    # carries radius 4, not the default
    "tampered.json": {"schema": "scalecover-report/3",
                      "budgets": {"coset_rows": 100000, "ident_budget": 100000,
                                  "product_bound": 200000, "radius": 4},
                      "replay": 5, "inputs": {}, "results": {}},
}

GOLDEN = {
    ("analyze", "c6.json"):
        "c2cd1f1cf8f9734501ff8e4ac3c487126ff564297b669a808753049ca13e5af8",
    ("analyze", "tri.csv", "--radii", "2.5,1.5"):
        "9688093b4f4f7aaba80ea2a08dd26c6640625be205374552e73f78889b56b9e4",
    # a complete, identified cover: its verdict is UCM with witnesses (1, 2)
    ("cover", "c6.json", "--scale", "1", "--basepoint", "0", "--radius", "6"):
        "9ab78326967804ab44884daa2a231e7d85c3f25d89181c61820960b85c80bb44",
    ("cover", "c6.json", "--scale", "2", "--basepoint", "0", "--radius", "6"):
        "b9698e2490b983886b8daf788d17f06b01a799602f5676c76f78d35e07367c63",
    ("action", "rotation.json", "--quotient-scale", "2", "--tower"):
        "e68616fc73a997701e01fed20a1e0cf5cab1d80b5a6c24f49976a86222820c1f",
    ("action", "s3.json", "--quotient-scale", "3", "--tower"):
        "91508bf537294f7583d8c99f17f4178e17bfb9501c69bab6651d3642fbb1f573",
    ("action", "swap.json", "--quotient-scale", "1", "--tower"):
        "75b362242bbaae4a51814351c39f7540250f4d30a1e3ec50888ba250d0e55dfb",
    ("map", "wrap.json"):
        "b9396d892767d6f54f1e760e9496aa520c7c3585489a30b0b718ce26565ea181",
    ("quotient", "wrap.json", "--scale", "1"):
        "aa772436ee35d0b5545650261abe141bb3de7d8cad19a9af884290e6f877a4e5",
    # the quotient at the source depth is also the factorization's
    ("quotient", "wrap.json", "--scale", "2"):
        "858eef298abef89b5a730ef72dbf696fb9a5d6cd1ea4b81f1877cd04fa646c85",
    ("tower", "discrete.json"):
        "27805f3a18e3a05194f8f9979a8485d13d5becdbff0567c18741f85a7df0a666",
    ("tower", "detour.json"):
        "771c45b721166f3eda0ac1cd86174b4ebcd4b1a5b04dcefc79794264ff8f664d",
    ("tower", "abelian.json", "--telescope", "backward"):
        "a4317e013dbbed792ea3efecc32a4181b1c97741f262c125ea097b4bc923350d",
    ("tower", "z4.json"):
        "7ad5c0dc6ca4488a1a6f79cf0d578396d7aedb9b31b03a41592fa2aaa5be90b5",
    ("verify", "--replay", "tampered.json"):
        "5c5887b9e3180e9b3a2f1f64866c2ea541c42d0d54c5f3deffc41247870586e9",
    # pi_1 = Z * Z/2: every pair is decided, none is left Unknown, and the
    # radius ends the build
    ("cover", "rp2s1.json", "--scale", "1", "--basepoint", "0", "--radius", "10"):
        "8b26b55b5b7389f59454e8dbe471be91707892f2bb3d8f2f2248af0418dc4c55",
    # an enumeration of at most one row closes for no group but the trivial
    # one: each undecided pair names ident_budget, whose value the report records
    ("cover", "rp2s1.json", "--scale", "1", "--basepoint", "0", "--radius", "10",
     "--ident-budget", "1"):
        "7db89475cc5a20c256fdcd9846d673bfbc1254d7399fc9920a03dd81dd52cff2",
}


# The digests of every golden under scalecover-report/3, which the reports
# rebuilt by schema_3_report must hash to.
SCHEMA_3_GOLDEN = {
    ("analyze", "c6.json"):
        "b0ffd4ff37e108b3d79342bffe7fe5bfcf49256dd250d437bf70700c9de8cc4d",
    ("analyze", "tri.csv", "--radii", "2.5,1.5"):
        "5f8e43826e877028d29e19a30fbd1b39f9537964b5ad1ba2544133a5f79b6d31",
    # a complete, identified cover: its verdict is UCM with witnesses (1, 2)
    ("cover", "c6.json", "--scale", "1", "--basepoint", "0", "--radius", "6"):
        "4f15ee3967c719ed55707ed94c1b3af83472377b9364c868464df2f82ecf5f9a",
    ("cover", "c6.json", "--scale", "2", "--basepoint", "0", "--radius", "6"):
        "eae0dd2f22fe57712bb18171b8b67e4ba180d97ff56fbc0d56821e4c19c46530",
    ("action", "rotation.json", "--quotient-scale", "2", "--tower"):
        "8ab12df014d313b6a730a23e8584d0de50151532a7cc3a363ba68aadc9b86f6e",
    ("action", "s3.json", "--quotient-scale", "3", "--tower"):
        "821f61fd2c2266516d58b830979e73aec1300c59e73b3dc9f07d4b963bff87da",
    ("action", "swap.json", "--quotient-scale", "1", "--tower"):
        "97a94fdadea72d31bdd5b1ca347238c8563e4c69fad442812173c7245d9a3ed2",
    ("map", "wrap.json"):
        "7a314e562bec8c34d06e3589592b5d877856e9064cf1d25863b1716055098323",
    ("quotient", "wrap.json", "--scale", "1"):
        "d4ce03001ef0f6e34272e79503863203170bbd30ac0eed39eb869236b26697c4",
    # the quotient at the source depth is also the factorization's
    ("quotient", "wrap.json", "--scale", "2"):
        "dad1d029092d279103da672530ae1b94b492953582c7120407bdaf9a38980257",
    ("tower", "discrete.json"):
        "38d1ce9347774d3e13cf79635cad7caad0ca6077dd827e65f589d86cb3e5c288",
    ("tower", "detour.json"):
        "145ba1e22a1e09f5fd066a088e78e62b8b3af9bdd612850dcf90df07bf244da9",
    ("tower", "abelian.json", "--telescope", "backward"):
        "b8f8f46e0e88db36f6e70a99d1851041f8375dfea37b6e341fa86279b9b68eb2",
    ("tower", "z4.json"):
        "5137fb4d63cf121cbc16b519397011b32dab5a5723447b21ea5228fa152a51c6",
    ("verify", "--replay", "tampered.json"):
        "6323f8fc50909d08f6627501b75b5a02a6b0c78bae549eba49aea992c55b49ec",
}


# The digests of every golden under scalecover-report/2, which the reports
# rebuilt by schema_2_report must hash to.
SCHEMA_2_GOLDEN = {
    ("analyze", "c6.json"):
        "6a855f40aafc50025fab47d5d7b7469d5cd40ef46f1b0b1b7a2a722ea2556d1d",
    ("analyze", "tri.csv", "--radii", "2.5,1.5"):
        "10ccb90c5a9b11b2540aa95f67e8c954b9b2f676e52586fa0059d5d4c1fb6c1b",
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


def indent_2(doc) -> str:
    """doc in the layout of schemas 1 and 2: every array member on its own line."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def scales_spec(space) -> dict:
    """A space spec as schemas 1 and 2 wrote it: every scale's closed
    neighbourhoods as ordered pairs, the diagonal and both orders included."""
    scales = [[[x, y] for x in space.points for y in space.sort_points(space.closed(k, x))]
              for k in range(1, space.depth + 1)]
    return formats.to_jsonable({"kind": "space", "points": list(space.points),
                                "scales": scales, "hausdorff": space.hausdorff})


def scales_form(node):
    """node with each space spec of the pairs form rewritten as scales_spec."""
    if isinstance(node, dict):
        if node.get("kind") == "space" and "pairs" in node:
            return scales_spec(formats.space_from_spec(node))
        return {key: scales_form(value) for key, value in node.items()}
    if isinstance(node, list):
        return [scales_form(value) for value in node]
    return node


def schema_3_report(argv) -> str:
    """The scalecover-report/3 text of a command, run in the current
    directory: its report with the schema-3 schema line and the budget
    coset_rows, which schema 3 recorded beside ident_budget and which gave
    ident_budget its value, put back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    report = json.loads(out.getvalue())
    report["schema"] = "scalecover-report/3"
    report["budgets"]["coset_rows"] = report["budgets"]["ident_budget"]
    return formats.canonical_dumps(report)


def schema_2_report(argv) -> str:
    """The scalecover-report/2 text of a command, run in the current
    directory: its schema-3 report with the schema-2 schema line, its input
    spaces in the scales form, its input_digest taken of those inputs, and
    the whole written in the indent-2 layout."""
    report = json.loads(schema_3_report(argv))
    inputs = scales_form(report["inputs"])
    report.update(schema="scalecover-report/2", inputs=inputs,
                  input_digest="sha256:" + hashlib.sha256(indent_2(inputs).encode()).hexdigest())
    return indent_2(report)


def schema_1_report(argv) -> str:
    """The scalecover-report/1 text of a quotient command, run in the current
    directory and rebuilt from its schema-2 text and library objects as
    schema 1 wrote it: the blocks once more as ``fiber_components``, and the
    factorization's quotient with its map, space, collapse and induced map
    (``base``, ``space``, ``q``, ``g``) written whole."""
    report = json.loads(schema_2_report(argv))
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
    return indent_2(report)


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


def assert_rebuild_replays(capsys, tmp_path, argv, text):
    """text, the rebuilt report of argv, replays with identical results."""
    if argv[0] == "verify":
        return
    (tmp_path / "report.json").write_text(text)
    capsys.readouterr()
    code = main(["verify", "--replay", "report.json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert results["results_identical"] is True
    assert results["counterexample_failures"] == []


@pytest.mark.parametrize("argv", sorted(SCHEMA_3_GOLDEN), ids=" ".join)
def test_schema_3_rebuild_matches_its_golden(capsys, monkeypatch, tmp_path, argv):
    """Every byte a schema-4 report changed is the schema line and the
    budget coset_rows: rebuilt with both, the report is the one schema 3
    wrote, and it replays."""
    write_inputs(monkeypatch, tmp_path)
    text = schema_3_report(argv)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_3_GOLDEN[argv]
    assert_rebuild_replays(capsys, tmp_path, argv, text)


@pytest.mark.parametrize("argv", sorted(SCHEMA_2_GOLDEN), ids=" ".join)
def test_schema_2_rebuild_matches_its_golden(capsys, monkeypatch, tmp_path, argv):
    """Every byte a schema-3 report changed is the layout, the space specs
    of its inputs or the schema line: rebuilt in the schema-2 form, the
    report is the one schema 2 wrote, and it replays."""
    write_inputs(monkeypatch, tmp_path)
    text = schema_2_report(argv)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_2_GOLDEN[argv]
    assert_rebuild_replays(capsys, tmp_path, argv, text)


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



_SCHEMAS = ("one of 'scalecover-report/1', 'scalecover-report/2', 'scalecover-report/3', "
            "'scalecover-report/4'")


@pytest.mark.parametrize("path,value,message", [
    (("schema",), None, f"report field schema must be {_SCHEMAS}, got None"),
    (("schema",), "scalecover-report/9",
     f"report field schema must be {_SCHEMAS}, got 'scalecover-report/9'"),
    (("budgets", "bogus"), 5, "report field budgets.bogus is not a budget"),
    (("budgets",), None, "report field budgets.ident_budget is missing"),
    (("budgets", "radius"), None, "report field budgets.radius is missing"),
    (("budgets", "coset_rows"), 100000, "report field budgets.coset_rows is not a budget"),
    (("schema",), "scalecover-report/3", "report field budgets.coset_rows is missing"),
    (("replay", "kind"), None, "report field replay.kind is missing"),
    (("inputs",), {}, "report field inputs.{key} is missing"),
    (("input_digest",), "sha256:" + "0" * 64,
     "report field input_digest is not the digest of report field inputs"),
], ids=["no schema", "schema 9", "extra budget", "no budgets", "no radius",
        "schema 4 with coset_rows", "schema 3 without coset_rows", "no kind", "no inputs",
        "zeroed digest"])
def test_bad_schema_or_budgets_do_not_replay(capsys, monkeypatch, tmp_path, path, value,
                                             message):
    """Every golden report, with its schema deleted or unknown, its budgets
    not exactly the three rows of cli.BUDGETS (and coset_rows, under schemas
    1 to 3), its replay kind deleted, its inputs emptied or its input_digest
    zeroed, is an input error on replay.  A value of None deletes
    the field; {key} in the message is the report kind's inputs field."""
    write_inputs(monkeypatch, tmp_path)
    for argv in sorted(a for a in GOLDEN if a[0] != "verify"):
        main([*argv, "--out", "report.json"])
        doc = json.loads((tmp_path / "report.json").read_text())
        expected = message.format(key=cli.COMMANDS[doc["replay"]["kind"]][0])
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
        assert report["results"]["error"] == f"ParseError: {expected}", argv

@pytest.mark.parametrize("budget,unknown", [((), 0), (("--ident-budget", "1"), 24)],
                         ids=["default budgets", "ident budget 1"])
def test_rp2_wedge_circle_unknowns_name_ident_budget(capsys, monkeypatch, tmp_path, budget,
                                                      unknown):
    """RP^2 v S^1 at radius 10: with the default budgets the normal form
    decides every pair, and the radius alone leaves the cover inconclusive.
    With an ident_budget of one row, the pairs that need the table are
    Unknown, each naming ident_budget with the value the report records."""
    write_inputs(monkeypatch, tmp_path)
    argv = ["cover", "rp2s1.json", "--scale", "1", "--basepoint", "0", "--radius", "10",
            *budget]
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["num_vertices"] == 252
    assert len(results["unknown_pairs"]) == unknown
    assert results["identification_incomplete"] is bool(unknown)
    ident_budget = report["budgets"]["ident_budget"]
    assert ident_budget == (1 if budget else rips.DEFAULT_COSET_ROWS)
    for pair in results["unknown_pairs"]:
        assert pair["reason"] == {"exhausted": "ident_budget", "budget": ident_budget}
    assert results["ucm"]["reason"] == ("ident_budget exhausted; classes undetermined"
                                        if unknown else
                                        "radius budget exhausted before completion")


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
    longer than its written inputs.  On the golden C16 -> C8 wrap the bound
    is the inputs as schema 2 wrote them, in the scales form and the indent-2
    layout; on the 8x30 wrap it is the inputs as the report writes them."""
    write_inputs(monkeypatch, tmp_path)
    (tmp_path / "wrap8x30.json").write_text(json.dumps(wrap_8x30()))
    assert main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    results = len(formats.canonical_dumps(report["results"]))
    if argv[1] == "wrap8x30.json":
        assert results <= len(formats.canonical_dumps(report["inputs"]))
    else:
        assert results <= len(indent_2(json.loads(schema_2_report(argv))["inputs"]))


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
