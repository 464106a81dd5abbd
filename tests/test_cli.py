import argparse
import ast
import collections
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scalecover
from conftest import identity_map
from reference_writer import reference_dumps
from scalecover import actions, cli, formats
from scalecover.cli import main
from scalecover.rips import DEFAULT_COSET_ROWS
from scalecover.towers import DEFAULT_PRODUCT_BOUND


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
    # json.dumps writes these floats as the non-JSON tokens Infinity, -Infinity and NaN
    "infinite_point_label": ("analyze", {"points": [math.inf, 1],
                                         "scales": [[[math.inf, math.inf], [1, 1],
                                                     [math.inf, 1], [1, math.inf]]]}),
    "negative_infinite_point_label": ("analyze", {"points": [-math.inf, 1],
                                                  "scales": [[[-math.inf, -math.inf],
                                                              [1, 1]]]}),
    "nan_point_label": ("analyze", {"points": [math.nan, 1],
                                    "scales": [[[math.nan, math.nan], [1, 1]]]}),
    "infinite_radius": ("analyze", {"matrix": [[0, 1], [1, 0]], "radii": [math.inf, 1]}),
    # bool() reads both as true, and the finest scale is the diagonal
    "hausdorff_string": ("analyze", {**SPACE_SPEC, "hausdorff": "false",
                                     "scales": [[[0, 0], [1, 1]]]}),
    "hausdorff_number": ("analyze", {**SPACE_SPEC, "hausdorff": 1,
                                     "scales": [[[0, 0], [1, 1]]]}),
    # documents given as text: json.dumps cannot write these, or writes 1e400 as Infinity
    "point_nested_3000_deep": ("analyze", '{"points": [' + "[" * 3000 + "0" + "]" * 3000
                               + '], "scales": [[]]}'),
    # json reads this one, and the point reader recurses past the limit
    "point_nested_900_deep": ("analyze", '{"points": [' + "[" * 900 + "0" + "]" * 900
                              + '], "scales": [[]]}'),
    "array_nested_100000_deep": ("analyze", "[" * 100_000 + "]" * 100_000),
    "overflowing_matrix_entry": ("analyze", '{"matrix": [[0, 1e400], [1e400, 0]], '
                                            '"radii": [1]}'),
    "overflowing_radius": ("analyze", '{"matrix": [[0, 1], [1, 0]], "radii": [-1e400]}'),
    # a required field left out
    "no_scales": ("analyze", {"points": [0]}),
    "no_radii": ("analyze", {"matrix": [[0, 1], [1, 0]]}),
    "map_without_target": ("map", {"kind": "map", "source": SPACE_SPEC, "assignment": [0, 0]}),
    "action_without_generators": ("action", {"kind": "action", "space": SPACE_SPEC}),
    "group_without_torsion": ("tower", {"kind": "abelian_tower", "groups": [{"rank": 1}],
                                        "matrices": []}),
    "tower_without_bondings": ("tower", {"kind": "space_tower", "spaces": [SPACE_SPEC]}),
    # a matrix spec names its points in names
    "matrix_with_points": ("analyze", {"points": [0, 1], "matrix": [[0, 1], [1, 0]],
                                       "radii": [1]}),
}

# the field each case above leaves out, which its error names
MISSING_FIELDS = {"no_radii": "radii", "map_without_target": "target",
                  "action_without_generators": "generators",
                  "group_without_torsion": "torsion", "tower_without_bondings": "bondings"}

# the form of a space spec is read from pairs, scales or matrix, never from
# points, and the error names what is wrong with the form
SPEC_FORM_ERRORS = {"no_scales": "a space spec needs one of pairs, scales and matrix",
                    "matrix_with_points": "a matrix spec names its points in names, not points"}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_json_is_input_error(capsys, tmp_path, case):
    cmd, doc = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, report = run(capsys, cmd, str(path))
    assert code == 3
    assert report["results"]["error"].startswith("ParseError: ")
    if case in MISSING_FIELDS:
        assert report["results"]["error"] == f"ParseError: field {MISSING_FIELDS[case]} is missing"
    if case in SPEC_FORM_ERRORS:
        assert report["results"]["error"] == f"ParseError: {SPEC_FORM_ERRORS[case]}"


PAIRS_SPEC = {"kind": "space", "points": [0, 1, 2], "depth": 2,
              "pairs": [[0, 1, 2], [1, 2, 1]], "hausdorff": False}

# each way a space spec of the pairs form can be bad, and the error it names
BAD_PAIRS_SPECS = {
    "duplicate_points": ({"points": [0, 1, 0]},
                         "SpaceError: duplicate point identifiers"),
    "no_depth": ({"depth": None}, "ParseError: field depth is missing"),
    "depth_zero": ({"depth": 0}, "ParseError: depth must be a positive integer, got 0"),
    "depth_true": ({"depth": True}, "ParseError: depth must be a positive integer, got True"),
    "depth_float": ({"depth": 2.0}, "ParseError: depth must be a positive integer, got 2.0"),
    "depth_text": ({"depth": "2"}, "ParseError: depth must be a positive integer, got '2'"),
    "pairs_not_array": ({"pairs": 5}, "ParseError: pairs must be an array, got int"),
    "entry_not_array": ({"pairs": [[0, 1, 1], 7]},
                        "ParseError: a pair must be an array [a, b, k], got 7"),
    "entry_of_two": ({"pairs": [[0, 1]]},
                     "ParseError: a pair must be an array [a, b, k], got [0, 1]"),
    "entry_of_four": ({"pairs": [[0, 1, 1, 1]]},
                      "ParseError: a pair must be an array [a, b, k], got [0, 1, 1, 1]"),
    "scale_zero": ({"pairs": [[0, 1, 0]]}, "ParseError: the finest scale of a pair must "
                                           "be an integer in 1..2, got [0, 1, 0]"),
    "scale_above_depth": ({"pairs": [[0, 1, 3]]}, "ParseError: the finest scale of a pair "
                                                  "must be an integer in 1..2, got [0, 1, 3]"),
    "scale_float": ({"pairs": [[0, 1, 1.0]]}, "ParseError: the finest scale of a pair must "
                                              "be an integer in 1..2, got [0, 1, 1.0]"),
    "scale_true": ({"pairs": [[0, 1, True]]}, "ParseError: the finest scale of a pair must "
                                              "be an integer in 1..2, got [0, 1, True]"),
    "point_with_itself": ({"pairs": [[0, 1, 1], [2, 2, 1]]},
                          "SpaceError: pair (2, 2) relates a point to itself"),
    "unknown_first_point": ({"pairs": [[7, 1, 1]]}, "UnknownPoint: unknown point 7"),
    "unknown_second_point": ({"pairs": [[0, 8, 1]]}, "UnknownPoint: unknown point 8"),
    "listed_twice": ({"pairs": [[0, 1, 2], [1, 2, 1], [0, 1, 2]]},
                     "SpaceError: pair (0, 1) is listed twice"),
    "listed_twice_reversed": ({"pairs": [[0, 1, 2], [1, 0, 1]]},
                              "SpaceError: pair (0, 1) is listed twice"),
    "hausdorff_with_finest_pair": ({"hausdorff": True}, "HausdorffViolated: hausdorff flag "
                                   "set but finest scale is not the diagonal ((0, 1))"),
}


@pytest.mark.parametrize("case", sorted(BAD_PAIRS_SPECS))
def test_bad_pairs_spec_is_input_error(capsys, tmp_path, case):
    """Each bad space spec of the pairs form exits 3 with an error report
    naming what failed; a value of None deletes the field."""
    edit, error = BAD_PAIRS_SPECS[case]
    spec = {key: value for key, value in {**PAIRS_SPEC, **edit}.items() if value is not None}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, "analyze", str(path))
    assert code == report["exit_code"] == 3
    assert report["results"]["error"] == error


# a valid space spec of each form
_FORMS = {"pairs": {"points": [0, 1], "depth": 1, "pairs": []},
          "scales": {"points": [0, 1], "scales": [[[0, 0], [1, 1]]]},
          "matrix": {"matrix": [[0, 1], [1, 0]], "radii": [1]}}


@pytest.mark.parametrize("forms", [("pairs", "scales"), ("pairs", "matrix"),
                                   ("scales", "matrix"), ("pairs", "scales", "matrix")],
                         ids="+".join)
def test_space_spec_of_two_forms_is_input_error(capsys, tmp_path, forms):
    """A space spec is read in one form: the fields of two or three valid
    specs of different forms, merged, exit 3 naming the forms found."""
    for form in forms:
        assert formats.space_from_spec(_FORMS[form]).points == (0, 1)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({key: value for form in forms
                                for key, value in _FORMS[form].items()}))
    code, report = run(capsys, "analyze", str(path))
    assert code == report["exit_code"] == 3
    assert report["results"]["error"] == ("ParseError: a space spec holds one of pairs, "
                                          f"scales and matrix, got {', '.join(forms)}")


def test_pairs_spec_reads_as_its_scales(capsys, tmp_path):
    """Scale k of a pairs spec holds the pairs whose finest scale is k or
    finer, and the spec as read is written back byte for byte."""
    space = formats.space_from_spec(PAIRS_SPEC)
    assert space.scales == (frozenset({(0, 1), (1, 2)}), frozenset({(0, 1)}))
    assert formats.space_to_spec(space) == PAIRS_SPEC
    path = tmp_path / "space.json"
    path.write_text(formats.canonical_dumps(PAIRS_SPEC))
    code, report = run(capsys, "analyze", str(path))
    assert code == 0
    assert report["inputs"]["space"] == PAIRS_SPEC


BAD_FLAGS = {
    "unknown_flag": ["analyze", "{csv}", "--radii", "2,1", "--bogus"],
    "non_integer_scale": ["cover", "{csv}", "--radii", "2,1", "--scale", "abc",
                          "--basepoint", "0"],
    "missing_basepoint": ["cover", "{csv}", "--radii", "2,1", "--scale", "1"],
    # int() reads this as 10
    "underscored_scale": ["cover", "{csv}", "--radii", "2,1", "--scale", "1_0",
                          "--basepoint", "0"],
    "no_subcommand": [],
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flags_are_input_error(capsys, c6_csv_file, case):
    argv = [a.format(csv=c6_csv_file) for a in BAD_FLAGS[case]]
    code, report = run(capsys, *argv)
    assert code == report["exit_code"] == 3
    assert report["results"]["error"].startswith("ParseError: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_duplicate_matrix_names_are_input_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"matrix": [[0, 5], [5, 0]], "radii": [5], "names": [7, 7]}))
    code, report = run(capsys, "analyze", str(path))
    assert code == 3
    assert report["results"]["error"] == "SpaceError: duplicate point identifiers"


@pytest.mark.parametrize("flags", [("--radii", "1", "--out"), ("--out",),
                                   ("--radii", "1", "--barcode")],
                         ids=["out", "out after an input error", "barcode"])
def test_unwritable_output_is_input_error(capsys, tmp_path, flags):
    """A report or side file that cannot be written ends in an input-error
    report on standard output naming the OSError, whether the run succeeded
    (with --radii) or not (without)."""
    path = tmp_path / "two.csv"
    path.write_text("0,1\n1,0\n")
    target = tmp_path / "missing" / "r.json"
    code, report = run(capsys, "analyze", str(path), *flags, str(target))
    assert code == report["exit_code"] == 3
    assert report["results"]["error"].startswith("FileNotFoundError: ")
    assert not target.parent.exists()


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


@pytest.mark.parametrize("command,key,value,error", [
    ("cover", "scale", "x", "ParseError"),
    ("cover", "scale", None, "ParseError"),
    ("cover", "scale", True, "ParseError"),
    ("cover", "basepoint", [0], "UnknownPoint"),
    ("quotient", "scale", "2", "ParseError"),
    ("action", "quotient_scale", "2", "ParseError"),
    ("action", "tower", 1, "ParseError"),
    ("analyze", "radii", 5, "ParseError"),
    ("analyze", "radii", [2], "ParseError"),
])
def test_tampered_replay_options_are_input_errors(capsys, tmp_path, c6_csv_file, map_file,
                                                  action_file, command, key, value, error):
    flags = {
        "analyze": [c6_csv_file, "--radii", "2,1"],
        "cover": [c6_csv_file, "--radii", "2,1", "--scale", "1", "--basepoint", "0"],
        "quotient": [map_file, "--scale", "1"],
        "action": [action_file, "--quotient-scale", "2"],
    }[command]
    out = tmp_path / "report.json"
    assert main([command, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    doc["replay"]["options"][key] = value
    out.write_text(json.dumps(doc))
    code, report = run(capsys, "verify", "--replay", str(out))
    assert code == report["exit_code"] == 3
    assert report["results"]["error"].startswith(f"{error}: ")


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--radii", "1"],
    ["analyze", "--radii", "5,4,3"],
    ["cover", "--radii", "2,1", "--scale", "1", "--basepoint", "0"],
], ids=["analyze_fewer_radii", "analyze_other_radii", "cover"])
def test_radii_on_a_json_spec_is_input_error(capsys, tmp_path, argv):
    """A JSON spec carries its own scales, so --radii is refused rather than
    indexed past its end or reported as the spec's radii."""
    matrix = [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({"matrix": matrix, "radii": [2, 1]}))
    code, report = run(capsys, argv[0], str(path), *argv[1:])
    assert code == report["exit_code"] == 3
    assert report["results"]["error"] == (
        "ParseError: --radii applies only to a CSV distance matrix")


class TestAnalyze:
    def test_zero_distance_points_replay(self, capsys, tmp_path):
        # points 0 and 1 at distance 0 share the finest scale: not Hausdorff
        path = tmp_path / "zero.csv"
        path.write_text("0,0,2\n0,0,2\n2,2,0\n")
        out = tmp_path / "zero.json"
        code, _ = run(capsys, "analyze", str(path), "--radii", "3,1", "--out", str(out))
        assert code == 0
        code, replay = run(capsys, "verify", "--replay", str(out))
        assert code == 0
        assert replay["results"]["results_identical"] is True

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

    # --radii and CSV cells share one number reader
    @pytest.mark.parametrize("csv,radii", [
        ("0,1,2\n1,0,1\n2,1,0\n", "1.e999,1.5"),
        ("0,1e999\n1e999,0\n", "2,1"),
    ], ids=["infinite_radius", "infinite_csv_cell"])
    def test_non_finite_number_is_input_error(self, capsys, tmp_path, csv, radii):
        path = tmp_path / "m.csv"
        path.write_text(csv)
        code, report = run(capsys, "analyze", str(path), "--radii", radii)
        assert code == 3
        assert report["results"]["error"].startswith("ParseError: ")
        assert "is not finite" in report["results"]["error"]

    # ASCII digits only: no digit-group underscores, no other scripts' digits
    @pytest.mark.parametrize("csv,radii", [
        ("0,1_0\n1_0,0\n", "2,1"),
        ("0,\u0661\n\u0661,0\n", "2,1"),
        ("0,1\n1,0\n", "2_0,1"),
    ], ids=["underscore_csv_cell", "arabic_indic_csv_cell", "underscore_radius"])
    def test_non_ascii_decimal_is_input_error(self, capsys, tmp_path, csv, radii):
        path = tmp_path / "m.csv"
        path.write_text(csv, encoding="utf-8")
        code, report = run(capsys, "analyze", str(path), "--radii", radii)
        assert code == 3
        assert report["results"]["error"].startswith("ParseError: ")
        assert "bad number" in report["results"]["error"]

    def test_exponent_radius_reads_like_csv_cell(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n1,0,2e0\n2,2e0,0\n")
        code, report = run(capsys, "analyze", str(path), "--radii", "2e0,1")
        assert code == 0
        assert [row["radius"] for row in report["results"]["per_scale"]] == [2.0, 1]


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

    def test_basepoint_names_a_string_labelled_point(self, capsys, tmp_path):
        matrix = [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]
        path = tmp_path / "c6s.json"
        path.write_text(json.dumps(
            {"matrix": matrix, "radii": [2, 1], "names": [str(i) for i in range(6)]}))
        code, report = run(capsys, "cover", str(path), "--scale", "1",
                           "--basepoint", "0", "--radius", "6")
        assert code == 0
        assert report["replay"]["options"]["basepoint"] == "0"
        assert report["results"]["endpoints"][0] == "0"
        assert report["results"]["ucm"]["verdict"] == "UCM"

    def test_int_basepoint_outside_the_space_stays_an_int(self, capsys, c6_csv_file):
        code, report = run(capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "1",
                           "--basepoint", "9", "--radius", "6")
        assert code == 3
        assert report["results"]["error"] == "UnknownPoint: unknown point 9"

    # int() reads these as 10 and 3, both points of C_12
    @pytest.mark.parametrize("text", ["1_0", "\u0663"])
    def test_basepoint_int_is_ascii_decimal(self, capsys, tmp_path, text):
        path = tmp_path / "c12.csv"
        path.write_text("".join(
            ",".join(str(min(abs(i - j), 12 - abs(i - j))) for j in range(12)) + "\n"
            for i in range(12)))
        code, report = run(capsys, "cover", str(path), "--radii", "2,1", "--scale", "2",
                           "--basepoint", text, "--radius", "2")
        assert code == 3
        assert report["results"]["error"] == f"UnknownPoint: unknown point {text!r}"


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
        assert len(report["results"]["quotient"]["blocks"]) == 6

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

    @pytest.mark.parametrize("bondings", [[], [[0, 1, 2, 3]] * 2], ids=["fewer", "more"])
    def test_bonding_count_is_input_error(self, capsys, tmp_path, fix_l4, bondings):
        spec = {"kind": "space_tower", "spaces": [formats.space_to_spec(fix_l4)] * 2,
                "bondings": bondings}
        path = tmp_path / "spt.json"
        path.write_text(formats.canonical_dumps(spec))
        code, report = run(capsys, "tower", str(path))
        assert code == report["exit_code"] == 3
        assert report["results"]["error"] == (
            "InvalidTower: need exactly one bonding map per adjacent pair")

    def test_replayed_tower_that_is_not_an_object_is_input_error(self, capsys, tmp_path,
                                                                 fix_l4):
        spec = {"kind": "space_tower", "spaces": [formats.space_to_spec(fix_l4)] * 2,
                "bondings": [[0, 1, 2, 3]]}
        path, out = tmp_path / "spt.json", tmp_path / "report.json"
        path.write_text(formats.canonical_dumps(spec))
        assert main(["tower", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["inputs"]["tower"] = 5
        out.write_text(json.dumps(doc))
        code, report = run(capsys, "verify", "--replay", str(out))
        assert code == report["exit_code"] == 3
        assert report["results"]["error"] == "ParseError: a tower spec must be an object, got int"

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

    def test_quotient_scale_reads_ascii_decimal_only(self, capsys, action_file):
        # int() reads the Arabic-Indic digit three as 3
        code, report = run(capsys, "action", action_file, "--quotient-scale", "\u0663")
        assert code == 3
        assert "--quotient-scale" in report["results"]["error"]


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

    @pytest.mark.parametrize("path,value,message", [
        (("chain_lifting",), [1], "results.chain_lifting must be an object"),
        (("approx_uniqueness_strong",), [1],
         "results.approx_uniqueness_strong must be an object"),
        (("approx_uniqueness_plain", "counterexample"), [1],
         "results.approx_uniqueness_plain.counterexample must be an object"),
        (("approx_uniqueness_plain", "counterexample", "finer_scale"), "x",
         "counterexample.finer_scale must be an integer"),
        (("approx_uniqueness_plain", "counterexample", "chains"), 5,
         "counterexample.chains must be an array"),
    ], ids=["chain_lifting", "uniqueness_strong", "counterexample", "finer_scale", "chains"])
    def test_malformed_stored_counterexample_is_input_error(self, capsys, tmp_path,
                                                            constant_map, path, value,
                                                            message):
        spec = tmp_path / "const.json"
        spec.write_text(formats.canonical_dumps(formats.map_to_spec(constant_map)))
        out = tmp_path / "report.json"
        main(["map", str(spec), "--out", str(out)])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        node = doc["results"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out.write_text(formats.canonical_dumps(doc))
        code, replay = run(capsys, "verify", "--replay", str(out))
        assert code == 3
        assert message in replay["results"]["error"]


class TestBudgetInput:
    # SCALECOVER_COSET_ROWS and --coset-rows name no budget: set to any value,
    # they are input errors that name them
    @pytest.mark.parametrize("value", ["abc", "-3", "1_2", "\u0663"])
    @pytest.mark.parametrize("name", ["SCALECOVER_RADIUS", "SCALECOVER_IDENT_BUDGET",
                                      "SCALECOVER_COSET_ROWS", "SCALECOVER_PRODUCT_BOUND"])
    def test_bad_env_budget_is_input_error(self, capsys, c6_csv_file, monkeypatch,
                                           name, value):
        monkeypatch.setenv(name, value)
        code, report = run(capsys, "analyze", c6_csv_file, "--radii", "2,1")
        assert code == 3
        assert name in report["results"]["error"]

    @pytest.mark.parametrize("value", ["-3", "abc", "1_0", "\u0663"])
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

    @pytest.mark.parametrize("env,flags,name", [
        ({"SCALECOVER_COSET_ROWS": "7"}, (), "SCALECOVER_COSET_ROWS"),
        ({"SCALECOVER_COSET_ROWS": "7", "SCALECOVER_IDENT_BUDGET": "9"}, (),
         "SCALECOVER_COSET_ROWS"),
        ({}, ("--coset-rows", "5"), "--coset-rows"),
        ({}, ("--ident-budget", "9", "--coset-rows", "5"), "--coset-rows"),
    ], ids=["variable", "variable beside ident_budget", "flag", "flag beside ident_budget"])
    def test_coset_rows_is_no_budget(self, capsys, c6_csv_file, monkeypatch, env, flags,
                                     name):
        """The identification enumerations have one budget, ident_budget: the
        retired coset_rows, which only ever gave it, is an input error in the
        environment and on the command line, beside ident_budget too."""
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        code, report = run(capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
                           "--basepoint", "0", *flags)
        assert code == 3
        assert name in report["results"]["error"]
        assert "coset_rows" not in report["budgets"]

    def test_zero_budget_is_accepted(self, capsys, c6_csv_file):
        code, report = run(
            capsys, "cover", c6_csv_file, "--radii", "2,1", "--scale", "2",
            "--basepoint", "0", "--radius", "0",
        )
        assert code == 2
        assert report["budgets"]["radius"] == 0

    # a schema-4 report that carries coset_rows, whatever its value, does not replay
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


def _reference_budgets(args):
    """Budgets as they were resolved before the table cli.BUDGETS, less the
    retired coset_rows: the former default_budgets, then the budget branches
    of _live_space (for cover) and _live_tower (for tower), which changed the
    budgets in place.  A set SCALECOVER_COSET_ROWS is an input error before
    any budget is read."""
    if os.environ.get("SCALECOVER_COSET_ROWS"):
        raise formats.ParseError("SCALECOVER_COSET_ROWS names no budget")

    def env_budget(name, default):
        value = os.environ.get(name)
        return cli._budget(name, value) if value else default

    budgets = {
        "radius": env_budget("SCALECOVER_RADIUS", 8),
        "ident_budget": env_budget("SCALECOVER_IDENT_BUDGET", DEFAULT_COSET_ROWS),
        "product_bound": env_budget("SCALECOVER_PRODUCT_BOUND", DEFAULT_PRODUCT_BOUND),
    }
    if args.cmd == "cover":
        if args.radius is not None:
            budgets["radius"] = cli._budget("--radius", args.radius)
        if args.ident_budget is not None:
            budgets["ident_budget"] = cli._budget("--ident-budget", args.ident_budget)
    if args.cmd == "tower" and args.product_bound is not None:
        budgets["product_bound"] = cli._budget("--product-bound", args.product_bound)
    return budgets


def _outcome_of(resolve, args):
    """resolve(args), or ("error", its message) for an input error."""
    try:
        return resolve(args)
    except formats.ParseError as exc:
        return ("error", str(exc))


# each variable and each budget flag unset, valid, empty or bad; the valid
# values all differ, so that a budget read from the wrong source shows, and
# SCALECOVER_COSET_ROWS, set, names no budget
_VARIABLES = {"SCALECOVER_RADIUS": "3", "SCALECOVER_IDENT_BUDGET": "9",
              "SCALECOVER_COSET_ROWS": "7", "SCALECOVER_PRODUCT_BOUND": "11"}
_FLAGS = {"cover": {"radius": "4", "ident_budget": "6"},
          "tower": {"product_bound": "13"}}


def _budget_grid(monkeypatch):
    """Every (variables, command, flags) of the grid, each yielded with its
    variables set in the environment and its flags as a Namespace."""
    for env in itertools.product(*[(None, valid, "", "x") for valid in _VARIABLES.values()]):
        for name, value in zip(_VARIABLES, env):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        for cmd, flags in _FLAGS.items():
            for given in itertools.product(*[(None, valid, "", "-1")
                                             for valid in flags.values()]):
                yield env, argparse.Namespace(cmd=cmd, **dict(zip(flags, given)))


def test_budget_resolution_matches_reference(monkeypatch):
    """At every point of the grid, the defaults overridden by the variables
    and then by the flags give the reference's budgets, or its error."""
    defaults = {name: row[2] for name, row in cli.BUDGETS.items()}

    def resolve(args):
        return cli._overridden(cli._overridden(defaults), args)

    points = 0
    for env, args in _budget_grid(monkeypatch):
        assert _outcome_of(resolve, args) == _outcome_of(_reference_budgets, args), (env, args)
        points += 1
    assert points == 4 ** 4 * (4 ** 2 + 4)


def test_main_resolves_budgets_as_reference(capsys, monkeypatch, tmp_path, c6_csv_file,
                                            doubling_tower_file):
    """main reads the budgets as the reference does, at every 61st point of
    the grid.  Each command fails after its budgets are read (cover on an
    unknown basepoint, tower on --telescope without 'g'), so its input-error
    report carries the budgets or, when one is bad, names the variable or
    flag at fault."""
    spec = json.loads(Path(doubling_tower_file).read_text())
    del spec["g"]
    (tmp_path / "no-g.json").write_text(json.dumps(spec))
    commands = {"cover": ["cover", c6_csv_file, "--radii", "2,1", "--scale", "1",
                          "--basepoint", "99"],
                "tower": ["tower", str(tmp_path / "no-g.json"), "--telescope", "forward"]}
    for n, (env, args) in enumerate(_budget_grid(monkeypatch)):
        if n % 61:
            continue
        argv = list(commands[args.cmd])
        for name in _FLAGS[args.cmd]:
            if getattr(args, name) is not None:
                argv += [cli.BUDGETS[name][0], getattr(args, name)]
        code, report = run(capsys, *argv)
        expected = _outcome_of(_reference_budgets, args)
        assert code == 3
        if isinstance(expected, tuple):
            assert report["results"]["error"] == f"ParseError: {expected[1]}", (env, argv)
        else:
            assert report["budgets"] == expected, (env, argv)
            assert "99" in report["results"]["error"] or "'g'" in report["results"]["error"]


def test_readme_budget_table_rows_come_from_budgets():
    """Each row of the README's budget table shows BUDGETS' flag, variable,
    default and subcommand for its budget."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for name, (flag, variable, default, subcommand, _) in cli.BUDGETS.items():
        row = f"| `{name}` | `{flag}` | `{variable}` | {default:,} | `{subcommand}` |"
        assert row in readme, row


def test_readme_library_tour_gives_its_commented_results():
    """The README's library tour runs as written, and each bare expression
    in it gives the result its comment states."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values == [scalecover.AbelianGroupInv(rank=1, torsion=()),
                      scalecover.AbelianGroupInv(rank=0, torsion=()), [(1, 2)], 13, "UCM"]


def test_action_tower_reuses_diagnosis_and_quotient(capsys, tmp_path, monkeypatch):
    """action --quotient-scale k --tower diagnoses once and builds each scale
    quotient once: the tower gets the very objects the command reported."""
    n = 8
    cycle = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    spec = {"kind": "action", "space": {"matrix": cycle, "radii": [2, 1, 0]},
            "generators": [[(i + 2) % n for i in range(n)]]}
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(spec))
    returned = collections.defaultdict(list)

    def recorded(fn):
        def wrapper(action, *args):
            result = fn(action, *args)
            returned[(fn.__name__, *args)].append(result)
            return result
        return wrapper

    for name in ("diagnose_action", "quotient_at_scale"):
        wrapper = recorded(getattr(actions, name))
        monkeypatch.setattr(actions, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    code, report = run(capsys, "action", str(path), "--quotient-scale", "2", "--tower")
    assert code == 0
    assert report["results"]["tower"]["verdict"] == "verified"
    assert {key: len(results) for key, results in returned.items()} == {
        ("diagnose_action",): 2, ("quotient_at_scale", 1): 1,
        ("quotient_at_scale", 2): 2, ("quotient_at_scale", 3): 1}
    assert all(r is results[0] for results in returned.values() for r in results)


def test_main_is_stateless_across_calls(capsys, c6_csv_file, monkeypatch):
    """Good and failing commands run in turn in one process each write the
    report a fresh process writes."""
    for name in list(os.environ):
        if name.startswith("SCALECOVER_"):
            monkeypatch.delenv(name)
    commands = [
        ["analyze", c6_csv_file, "--radii", "2,1"],
        ["analyze", c6_csv_file, "--radii", "2,1", "--bogus"],
        ["cover", c6_csv_file, "--radii", "2,1", "--scale", "1"],
        ["cover", c6_csv_file, "--radii", "2,1", "--scale", "1", "--basepoint", "0",
         "--radius", "6"],
        ["analyze", c6_csv_file, "--radii", "2,1"],
    ]
    in_process = []
    for argv in commands:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [0, 3, 3, 0, 0]
    assert in_process[0] == in_process[-1]

    src = str(Path(scalecover.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, expected in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "scalecover.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stdout) == expected, argv


# strings with newlines, quotes, backslashes, control and non-ASCII characters
_text = st.text(st.sampled_from(["\n", '"', "\\", "\t", "\x00", "\u00e9", "\u2028", "a"])
                | st.characters(), max_size=6)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | _text)
_values = st.recursive(
    _scalars | st.tuples(st.integers(), _text),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=20,
)


@given(inputs=st.dictionaries(_text, _values, max_size=4))
@settings(max_examples=200, deadline=None)
def test_input_digest_hashes_inputs_as_their_own_document(inputs):
    report = cli._report(["analyze"], {"kind": "analyze", "options": {}}, inputs, {}, {}, 0)
    text = formats.canonical_dumps(report)
    alone = reference_dumps(formats.to_jsonable(inputs))
    parsed = json.loads(text)
    assert parsed["input_digest"] == "sha256:" + hashlib.sha256(alone.encode()).hexdigest()
    assert parsed["inputs"] == json.loads(alone)
    assert text == reference_dumps(parsed)


def _seven_subparsers(argv):
    """The parser as it was built for every call before a call built only
    its own subparser: all seven subparsers, whatever argv names."""
    parser = cli._Parser(
        prog="scalecover",
        description="verifiers for scale-filtered spaces, covers, quotients, "
                    "towers and group actions",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="chain components, H1 per scale, critical scales")
    p.set_defaults(live=cli._live_space)
    p.add_argument("space")
    p.add_argument("--radii", help="comma-separated radii for a CSV matrix")
    p.add_argument("--barcode", help="write a barcode CSV here")
    p.add_argument("--out")

    p = sub.add_parser("cover", help="build a cover and verify the covering axioms")
    p.set_defaults(live=cli._live_space)
    p.add_argument("space")
    p.add_argument("--radii")
    p.add_argument("--scale", type=cli._int_flag, required=True)
    p.add_argument("--basepoint", required=True)
    p.add_argument("--radius")
    p.add_argument("--ident-budget", dest="ident_budget",
                   help="row budget for the identification enumerations")
    p.add_argument("--dot", help="write the cover graph here")
    p.add_argument("--out")

    p = sub.add_parser("map", help="generation, lifting, uniqueness, gucm verdict")
    p.set_defaults(live=cli._live_map)
    p.add_argument("mapfile")
    p.add_argument("--out")

    p = sub.add_parser("quotient", help="fiber quotient and factorization at a scale")
    p.set_defaults(live=cli._live_map)
    p.add_argument("mapfile")
    p.add_argument("--scale", type=cli._int_flag, required=True)
    p.add_argument("--out")

    p = sub.add_parser("tower", help="limits, strong-ML, lim1, telescoping")
    p.set_defaults(live=cli._live_tower)
    p.add_argument("towerfile")
    p.add_argument("--lim1", action="store_true",
                   help="included for compatibility; lim1 always reported")
    p.add_argument("--telescope", choices=["forward", "backward"])
    p.add_argument("--product-bound", dest="product_bound")
    p.add_argument("--out")

    p = sub.add_parser("action", help="diagnosis, quotients, tower verification")
    p.set_defaults(live=cli._live_action)
    p.add_argument("actionfile")
    p.add_argument("--quotient-scale", type=cli._int_flag, dest="quotient_scale")
    p.add_argument("--tower", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="re-run a report's analysis and counterexamples")
    p.add_argument("--replay", required=True)
    p.add_argument("--out")
    return parser


def _outcome(capsys, argv):
    """(exit code, stdout) of main(argv), help's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return code, capsys.readouterr().out


def test_one_subparser_answers_as_seven(capsys, monkeypatch, tmp_path, c6_csv_file,
                                        map_file, action_file, doubling_tower_file):
    """Every subcommand's valid argv, its -h, and bad argv give the reports,
    help texts and exit codes that the seven-subparser parser gives."""
    for name in list(os.environ):
        if name.startswith("SCALECOVER_"):
            monkeypatch.delenv(name)
    report = str(tmp_path / "report.json")
    assert main(["map", map_file, "--out", report]) == 0
    capsys.readouterr()
    csv = (c6_csv_file, "--radii", "2,1")
    valid = [
        ["analyze", *csv],
        ["analyze", *csv, "--barcode", str(tmp_path / "barcode.csv")],
        ["cover", *csv, "--scale", "1", "--basepoint", "0", "--radius", "6",
         "--ident-budget", "400", "--dot", str(tmp_path / "c.dot")],
        ["map", map_file],
        ["quotient", map_file, "--scale", "1"],
        ["tower", doubling_tower_file, "--lim1", "--telescope", "forward",
         "--product-bound", "100"],
        ["action", action_file, "--quotient-scale", "1", "--tower"],
        ["verify", "--replay", report],
    ]
    helps = [[cmd, "-h"] for cmd in cli.SUBCOMMANDS] + [["-h"], ["--help"]]
    bad = [
        ["analyze", *csv, "--bogus"],
        ["analyze"],
        ["cover", *csv, "--scale", "1"],
        ["cover", *csv, "--scale", "abc", "--basepoint", "0"],
        ["cover", *csv, "--scale", "1", "--basepoint", "0", "--coset-rows", "500"],
        ["quotient", map_file, "--scale", "1.5"],
        ["tower", doubling_tower_file, "--telescope", "sideways"],
        ["verify"],
        ["analyze", *csv, "cover"],
        ["bogus", c6_csv_file],
        ["--bogus"],
        [],
    ]
    corpus = valid + helps + bad
    built = [_outcome(capsys, argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parser", _seven_subparsers)
    assert [_outcome(capsys, argv) for argv in corpus] == built
    assert [code for code, _ in built] == (
        [0] * len(valid) + [("SystemExit", 0)] * len(helps) + [3] * len(bad))


def test_a_command_builds_only_its_subparser(capsys, monkeypatch, c6_csv_file):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["analyze", c6_csv_file, "--radii", "2,1"]) == 0
    assert names == ["analyze"]
    names.clear()
    capsys.readouterr()
    code, report = run(capsys, "bogus")  # an unknown command lists every choice
    assert code == 3
    assert names == list(cli.SUBCOMMANDS)
    assert report["results"]["error"].startswith("ParseError: argument cmd: invalid choice")
