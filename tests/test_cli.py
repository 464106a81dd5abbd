import json

import pytest

from scalecover import formats
from scalecover.cli import main


def c6_csv():
    rows = [
        ",".join(str(min(abs(i - j), 6 - abs(i - j))) for j in range(6))
        for i in range(6)
    ]
    return "\n".join(rows) + "\n"


@pytest.fixture()
def c6_csv_file(tmp_path):
    path = tmp_path / "c6.csv"
    path.write_text(c6_csv())
    return str(path)


@pytest.fixture()
def map_file(tmp_path, fix_map):
    path = tmp_path / "map.json"
    path.write_text(formats.canonical_dumps(formats.map_to_spec(fix_map)))
    return str(path)


@pytest.fixture()
def action_file(tmp_path, fix_c6):
    spec = {
        "kind": "action",
        "space": formats.space_to_spec(fix_c6),
        "generators": [[3, 4, 5, 0, 1, 2]],
    }
    path = tmp_path / "action.json"
    path.write_text(formats.canonical_dumps(spec))
    return str(path)


@pytest.fixture()
def doubling_tower_file(tmp_path):
    spec = {
        "kind": "abelian_tower",
        "groups": [{"rank": 1, "torsion": []}] * 3,
        "matrices": [[[2]], [[2]]],
        "stabilization": "pattern_repeats",
        "g": [[1], [0]],
    }
    path = tmp_path / "tower.json"
    path.write_text(formats.canonical_dumps(spec))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestFormats:
    def test_space_roundtrip_bytes(self, fix_c6, tmp_path):
        spec = formats.space_to_spec(fix_c6)
        text = formats.canonical_dumps(spec)
        path = tmp_path / "c6.json"
        path.write_text(text)
        parsed = formats.space_from_spec(formats.load_json(str(path)))
        assert parsed == fix_c6
        assert formats.canonical_dumps(formats.space_to_spec(parsed)) == text

    def test_map_roundtrip(self, fix_map):
        spec = formats.map_to_spec(fix_map)
        again = formats.map_from_spec(json.loads(formats.canonical_dumps(spec)))
        assert again == fix_map

    def test_action_permutation_array(self, fix_c6):
        spec = {
            "kind": "action",
            "space": formats.space_to_spec(fix_c6),
            "generators": [[3, 4, 5, 0, 1, 2]],
        }
        action = formats.action_from_spec(spec)
        assert len(action.elements) == 2
        assert action.apply(action.elements[-1], 0) in (0, 3)

    def test_malformed_csv(self):
        with pytest.raises(formats.ParseError):
            formats.parse_distance_csv("0,1\n1\n")

    def test_bad_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(formats.ParseError) as exc:
            formats.load_json(str(path))
        assert "2" in str(exc.value)

    def test_inline_matrix_space_spec(self):
        spec = {
            "kind": "space",
            "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
            "radii": [1],
        }
        sp = formats.space_from_spec(spec)
        assert sp.points == (0, 1, 2)
        assert sp.related(1, 0, 1) and not sp.related(1, 0, 2)


SPACE_SPEC = {"points": [0, 1], "scales": [[[0, 0], [0, 1], [1, 0], [1, 1]]]}

MALFORMED_INPUTS = {
    "top_level_array": ("analyze", [1, 2]),
    "scales_not_array": ("analyze", {"points": [0, 1], "scales": 5}),
    "pair_not_array": ("analyze", {"points": [0, 1], "scales": [[0, 1]]}),
    "points_not_array": ("analyze", {"points": 3, "scales": [[]]}),
    "unhashable_point": ("analyze", {"points": [0, {"a": 1}], "scales": [[]]}),
    "matrix_not_numbers": ("analyze", {"matrix": [[0, "x"], ["x", 0]], "radii": [1]}),
    "map_source_not_object": ("map", {"kind": "map", "source": 3, "target": SPACE_SPEC,
                                      "assignment": [0, 0]}),
    "generators_not_array": ("action", {"kind": "action", "space": SPACE_SPEC,
                                        "generators": 7}),
    "tower_spaces_not_array": ("tower", {"kind": "space_tower", "spaces": 4,
                                         "bondings": []}),
    "rank_not_integer": ("tower", {"kind": "abelian_tower",
                                   "groups": [{"rank": "a", "torsion": []}],
                                   "matrices": []}),
    "matrix_names_not_points": ("analyze", {"matrix": [[0, 5], [5, 0]], "radii": [5],
                                            "names": [[1], {"a": 1}]}),
    "tower_ref_not_path": ("tower", {"kind": "space_tower", "spaces": [{"ref": 5}],
                                     "bondings": []}),
    "ragged_tower_matrix": ("tower", {"kind": "abelian_tower",
                                      "groups": [{"rank": 2, "torsion": []},
                                                 {"rank": 1, "torsion": []}],
                                      "matrices": [[[1], []]]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_json_is_input_error(capsys, tmp_path, case):
    cmd, doc = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, cmd, str(path))
    assert code == 3
    assert report["results"]["error"].startswith("ParseError: ")


def test_duplicate_matrix_names_are_input_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"matrix": [[0, 5], [5, 0]], "radii": [5], "names": [7, 7]}))
    code, report = run(capsys, "analyze", str(path))
    assert code == 3
    assert report["results"]["error"] == "SpaceError: duplicate point identifiers"


@pytest.mark.parametrize("field,value", [("replay", 5), ("inputs", [1])])
def test_malformed_replayed_report_is_input_error(capsys, c6_csv_file, tmp_path,
                                                 field, value):
    out = tmp_path / "report.json"
    main(["cover", c6_csv_file, "--radii", "2,1", "--scale", "2", "--basepoint", "0",
          "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc[field] = value
    out.write_text(json.dumps(doc))
    code, report = run(capsys, "verify", "--replay", str(out))
    assert code == 3
    assert f"report field {field} must be an object" in report["results"]["error"]


@pytest.mark.parametrize("g", [5, [["x"], [1]], [[1], [0], [1], [0]]])
def test_malformed_telescope_elements_are_input_errors(capsys, tmp_path, g):
    spec = {"kind": "abelian_tower", "groups": [{"rank": 1, "torsion": []}] * 3,
            "matrices": [[[2]], [[2]]], "g": g}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, "tower", str(path), "--telescope", "forward")
    assert code == 3
    assert "error" in report["results"]


def test_product_bound_covers_thread_pairs(capsys, tmp_path):
    # threads x length is 60 <= 100, but the 30 threads over one point make 435 pairs
    point = {"points": ["p"], "scales": [[["p", "p"]]]}
    top = {"points": list(range(30)), "scales": [[[i, i] for i in range(30)]]}
    spec = {"kind": "space_tower", "spaces": [point, top], "bondings": [["p"] * 30]}
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, "tower", str(path), "--product-bound", "100")
    assert code == 2
    assert report["results"]["exhausted"] == "product_bound"
    assert "435" in report["results"]["error"]


class TestAnalyze:
    def test_c6_barcode(self, capsys, c6_csv_file, tmp_path):
        barcode = tmp_path / "barcode.csv"
        code, report = run(
            capsys, "analyze", c6_csv_file, "--radii", "2,1",
            "--barcode", str(barcode),
        )
        assert code == 0
        rows = report["results"]["per_scale"]
        assert rows[0]["h1_rank"] == 0 and rows[1]["h1_rank"] == 1
        assert report["results"]["critical_scales"] == [[1, 2]]
        text = barcode.read_text()
        assert text.splitlines()[0] == "scale,radius,components,h1_rank,h1_torsion"
        assert "2,1,1,1," in text

    def test_missing_radii_is_input_error(self, capsys, c6_csv_file):
        code, report = run(capsys, "analyze", c6_csv_file)
        assert code == 3
        assert "error" in report["results"]


class TestCover:
    def test_cover_command(self, capsys, c6_csv_file, tmp_path):
        dot = tmp_path / "cover.dot"
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "1",
            "--basepoint", "0", "--radius", "6", "--dot", str(dot),
        )
        assert code == 0
        assert report["results"]["num_vertices"] == 6
        assert report["results"]["ucm"]["verdict"] == "UCM"
        assert dot.read_text().startswith("digraph cover {")

    def test_incomplete_cover_exit_2(self, capsys, c6_csv_file):
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
            "--basepoint", "0", "--radius", "3",
        )
        assert code == 2
        assert report["results"]["num_vertices"] == 7
        assert report["results"]["ucm"]["verdict"] == "Inconclusive"


class TestMapCommand:
    def test_gucm_map(self, capsys, map_file):
        code, report = run(capsys, "map", map_file)
        assert code == 0
        assert report["results"]["gucm_passed"]

    def test_constant_map_counterexample(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        code, report = run(capsys, "map", str(path))
        assert code == 1
        ce = report["results"]["approx_uniqueness_plain"]["counterexample"]
        assert ce is not None and len(ce["chains"]) == 2


class TestQuotientCommand:
    def test_factorization(self, capsys, map_file):
        code, report = run(capsys, "quotient", map_file, "--scale", "1")
        assert code == 0
        assert report["results"]["factorization"]["verdict"] == "UCM"
        assert len(report["results"]["fiber_components"]) == 6

    def test_constant_map_names_failing_axiom(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        code, report = run(capsys, "quotient", str(path), "--scale", "1")
        assert code == 1
        fact = report["results"]["factorization"]
        assert fact["verdict"] == "preconditions_failed"
        assert fact["preconditions"]["strong_approx_uniqueness"] is False
        assert fact["preconditions"]["generates"] is True


class TestTowerCommand:
    def test_lim1_undetermined_exits_zero(self, capsys, doubling_tower_file):
        code, report = run(capsys, "tower", doubling_tower_file, "--lim1")
        assert code == 0
        assert report["results"]["lim1"]["trivial"] is False

    def test_telescoping_modes(self, capsys, doubling_tower_file):
        code, report = run(
            capsys, "tower", doubling_tower_file, "--telescope", "backward"
        )
        assert code == 0
        assert report["results"]["telescoping"]["h"] == [[1], [0], [0]]
        code, report = run(
            capsys, "tower", doubling_tower_file, "--telescope", "forward"
        )
        assert report["results"]["telescoping"]["solved"] is False
        assert report["results"]["telescoping"]["failed_step"] == 1

    def test_space_tower(self, capsys, tmp_path, fix_l4):
        spec = {
            "kind": "space_tower",
            "spaces": [formats.space_to_spec(fix_l4)] * 2,
            "bondings": [[0, 1, 2, 3]],
            "stabilization": "none",
        }
        path = tmp_path / "spt.json"
        path.write_text(formats.canonical_dumps(spec))
        code, report = run(capsys, "tower", str(path))
        assert code == 0
        assert len(report["results"]["threads"]) == 4
        assert report["results"]["strong_ml"]["passed"]

    def test_space_tower_with_file_references(self, capsys, tmp_path, fix_l4):
        (tmp_path / "l4.json").write_text(
            formats.canonical_dumps(formats.space_to_spec(fix_l4))
        )
        spec = {
            "kind": "space_tower",
            "spaces": [{"ref": "l4.json"}, {"ref": "l4.json"}],
            "bondings": [[0, 1, 2, 3]],
        }
        path = tmp_path / "spt-ref.json"
        path.write_text(formats.canonical_dumps(spec))
        code, report = run(capsys, "tower", str(path))
        assert code == 0
        assert len(report["results"]["threads"]) == 4

    def test_tower_and_action_spec_roundtrip(self, fix_l4, fix_c6):
        from scalecover.actions import close_group
        from scalecover.quotients import identity_map
        from scalecover.towers import SpaceTower

        tower = SpaceTower((fix_l4, fix_l4), (identity_map(fix_l4),))
        text = formats.canonical_dumps(formats.space_tower_to_spec(tower))
        again = formats.space_tower_from_spec(json.loads(text))
        assert formats.canonical_dumps(formats.space_tower_to_spec(again)) == text

        action = close_group(fix_c6, [[3, 4, 5, 0, 1, 2]])
        text = formats.canonical_dumps(formats.action_to_spec(action))
        again = formats.action_from_spec(json.loads(text))
        assert formats.canonical_dumps(formats.action_to_spec(again)) == text


class TestActionCommand:
    def test_diagnosis_and_tower(self, capsys, action_file):
        code, report = run(capsys, "action", action_file, "--tower")
        assert code == 0
        diag = report["results"]["diagnosis"]
        assert diag["upd"]["scale"] == 2
        assert report["results"]["tower"]["verdict"].startswith("HypothesisUnmet")

    def test_quotient_scale(self, capsys, action_file):
        code, report = run(capsys, "action", action_file, "--quotient-scale", "2")
        assert code == 0
        assert len(report["results"]["quotient"]["orbit_partition"]) == 6
        assert report["results"]["quotient"]["upd_holds"]


class TestDeterminismAndReplay:
    def test_reports_byte_identical(self, capsys, c6_csv_file, map_file,
                                    action_file, doubling_tower_file):
        commands = [
            ("analyze", c6_csv_file, "--radii", "2,1"),
            ("cover", c6_csv_file, "--radii", "2,1", "--scale", "1",
             "--basepoint", "0", "--radius", "6"),
            ("map", map_file),
            ("quotient", map_file, "--scale", "1"),
            ("tower", doubling_tower_file, "--telescope", "backward"),
            ("action", action_file, "--tower"),
        ]
        for argv in commands:
            main(list(argv))
            first = capsys.readouterr().out
            main(list(argv))
            second = capsys.readouterr().out
            assert first == second, argv

    def test_replay_confirms_counterexample(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        out = tmp_path / "report.json"
        main(["map", str(path), "--out", str(out)])
        capsys.readouterr()
        code, replay = run(capsys, "verify", "--replay", str(out))
        assert code == 0
        assert replay["results"]["results_identical"]
        assert replay["results"]["counterexample_failures"] == []

    def test_env_budget_override(self, capsys, c6_csv_file, monkeypatch):
        monkeypatch.setenv("SCALECOVER_RADIUS", "2")
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
            "--basepoint", "0",
        )
        assert report["budgets"]["radius"] == 2
        assert report["results"]["num_vertices"] == 5
        assert code == 2

    def test_replay_detects_tampering(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        out = tmp_path / "report.json"
        main(["map", str(path), "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["results"]["gucm_passed"] = True
        out.write_text(formats.canonical_dumps(doc))
        code, replay = run(capsys, "verify", "--replay", str(out))
        assert code == 1
        assert not replay["results"]["results_identical"]

    def test_replay_rechecks_stored_counterexample(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        out = tmp_path / "report.json"
        main(["map", str(path), "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        ce = doc["results"]["approx_uniqueness_plain"]["counterexample"]
        ce["chains"][1] = ce["chains"][0]  # two equal lifts are close
        out.write_text(formats.canonical_dumps(doc))
        code, replay = run(capsys, "verify", "--replay", str(out))
        assert code == 1
        assert replay["results"]["counterexample_failures"] == [
            {"check": "approx_uniqueness_plain", "reason": "counterexample no longer verifies"}]


class TestBudgetInput:
    @pytest.mark.parametrize("value", ["abc", "-3"])
    @pytest.mark.parametrize("name", ["SCALECOVER_RADIUS", "SCALECOVER_IDENT_BUDGET",
                                      "SCALECOVER_COSET_ROWS", "SCALECOVER_PRODUCT_BOUND"])
    def test_bad_env_budget_is_input_error(self, capsys, c6_csv_file, monkeypatch,
                                           name, value):
        monkeypatch.setenv(name, value)
        code, report = run(capsys, "analyze", c6_csv_file, "--radii", "2,1")
        assert code == 3
        assert name in report["results"]["error"]

    @pytest.mark.parametrize("value", ["-3", "abc"])
    @pytest.mark.parametrize("flag", ["--radius", "--ident-budget", "--coset-rows"])
    def test_bad_cover_budget_flag_is_input_error(self, capsys, c6_csv_file, flag, value):
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
            "--basepoint", "0", flag, value,
        )
        assert code == 3
        assert flag in report["results"]["error"]

    @pytest.mark.parametrize("value", ["-1", "abc"])
    def test_bad_product_bound_is_input_error(self, capsys, doubling_tower_file, value):
        code, report = run(capsys, "tower", doubling_tower_file, "--product-bound", value)
        assert code == 3
        assert "--product-bound" in report["results"]["error"]

    def test_zero_budget_is_accepted(self, capsys, c6_csv_file):
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
            "--basepoint", "0", "--radius", "0",
        )
        assert code == 2
        assert report["budgets"]["radius"] == 0

    @pytest.mark.parametrize("field,value", [("radius", "abc"), ("radius", -3),
                                             ("ident_budget", 2.5), ("coset_rows", None)])
    def test_bad_replayed_budget_is_input_error(self, capsys, c6_csv_file, tmp_path,
                                                field, value):
        out = tmp_path / "report.json"
        main(["cover", c6_csv_file, "--radii", "2,1", "--scale", "2", "--basepoint", "0",
              "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["budgets"][field] = value
        out.write_text(json.dumps(doc))
        code, report = run(capsys, "verify", "--replay", str(out))
        assert code == 3
        assert f"budgets.{field}" in report["results"]["error"]

    def test_replayed_budgets_must_be_an_object(self, capsys, tmp_path, constant_map):
        path = tmp_path / "const.json"
        path.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        out = tmp_path / "report.json"
        main(["map", str(path), "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["budgets"] = "oops"
        out.write_text(json.dumps(doc))
        code, report = run(capsys, "verify", "--replay", str(out))
        assert code == 3
        assert "budgets" in report["results"]["error"]
