"""Command-line front end.

Subcommands: analyze, cover, map, quotient, tower, action, verify.  Every run
emits one deterministic JSON report (identical inputs and budgets give
byte-identical bytes) and exits with 0 when all verdicts are as claimed, 1
when a verifier found a counterexample, 2 when a budget left a verdict
inconclusive, and 3 on input errors.  The table BUDGETS gives each budget its
flag, its SCALECOVER_* environment variable and its default.

The table SUBCOMMANDS gives each subcommand its help, its live reader and
its arguments.  A call builds only the subparser that its first argument
names, or all seven when that names none (top-level help, or an unknown or
missing command), so argparse still lists every choice; no parser outlives
the call.

A live command turns its flags into (report kind, input object, options).
The table COMMANDS gives each kind its inputs field, spec reader and writer
and runner, so live runs and ``verify --replay`` share one path.  Runners
return library objects, and the report is written to JSON once, on output.
Its ``inputs`` are written once before that, by ``formats.written_field``,
which gives both their text, indented for the report, and their
``input_digest``.  Integer flags and budgets are read in ASCII decimal only.
``verify --replay`` checks a stored report's options as their flags were
checked, its budgets against BUDGETS (schemas 1 to 3 also carry coset_rows)
and its input_digest against its inputs, before it runs them; it replays
reports of schemas 1 to 4, comparing schema 1 results in the shape it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import formats
from .actions import action_tower_verify, diagnose_action, quotient_at_scale
from .covers import build_cover, cover_to_dot, critical_scales, verify_endpoint_ucm
from .quotients import (
    build_fiber_quotient,
    check_approx_uniqueness,
    counterexample_holds,
    factor_and_verify,
    verify_gucm,
)
from .rips import DEFAULT_COSET_ROWS, h1_at_scale
from .spaces import SpaceError, chain_components, from_metric
from .towers import (
    DEFAULT_PRODUCT_BOUND,
    ProductTooLarge,
    assemble_limit_space,
    lim1_verdict,
    strong_ml_check,
    telescoping_solve,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _integer(raw) -> int:
    """raw if it is an int, or the int its text writes in ASCII decimal (the
    grammar of formats.parse_number); ValueError for anything else, such as
    the '1_0' and non-ASCII digits that int() reads."""
    if type(raw) is str:
        raw = formats.parse_number(raw)
    if type(raw) is not int:
        raise ValueError(raw)
    return raw


def _int_flag(text) -> int:
    """The argparse type of the integer flags, with argparse's message for int."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _budget(name, raw):
    """A budget given on the command line, in the environment or in a report."""
    try:
        value = _integer(raw)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise formats.ParseError(f"{name} must be a nonnegative integer, got {raw!r}")


# budget -> (flag, variable, default, subcommand taking the flag, flag help).  Variables
# beat defaults and flags beat both.
BUDGETS = {
    "radius": ("--radius", "SCALECOVER_RADIUS", 8, "cover", None),
    "ident_budget": ("--ident-budget", "SCALECOVER_IDENT_BUDGET", DEFAULT_COSET_ROWS,
                     "cover", "row budget for the identification enumerations"),
    "product_bound": ("--product-bound", "SCALECOVER_PRODUCT_BOUND", DEFAULT_PRODUCT_BOUND,
                      "tower", None),
}


def _overridden(budgets, args=None):
    """budgets overridden by the variables (an empty one is unset), or by args' flags.

    A set SCALECOVER_* variable that names no budget is an input error, so that
    a misspelt or retired one is never ignored."""
    if args is None:
        # os.environ decodes what it yields: read only the values of matching keys
        given = {v: os.environ[v] for v in os.environ if v.startswith("SCALECOVER_")}
        sources = {name: (row[1], given.pop(row[1], None) or None)
                   for name, row in BUDGETS.items()}
        unknown = sorted(v for v, raw in given.items() if raw)
        if unknown:
            raise formats.ParseError(f"{unknown[0]} names no budget")
    else:
        sources = {name: (row[0], getattr(args, name, None)) for name, row in BUDGETS.items()}
    return {**budgets, **{name: _budget(*source) for name, source in sources.items()
                          if source[1] is not None}}


def _load_space(path, radii):
    """The space of a CSV matrix or a JSON spec, and the --radii as numbers.

    Only a CSV matrix takes --radii: a JSON spec carries its own scales.
    """
    radii = [formats.parse_number(r, "--radii") for r in radii.split(",")] if radii else None
    if path.endswith(".csv"):
        if radii is None:
            raise formats.ParseError("a CSV distance matrix needs --radii")
        with open(path) as fh:
            matrix = formats.parse_distance_csv(fh.read())
        return from_metric(matrix, radii), radii
    if radii is not None:
        raise formats.ParseError("--radii applies only to a CSV distance matrix")
    return formats.space_from_spec(formats.load_json(path)), None


# ---------------------------------------------------------------------------
# runners, shared by the live commands and by verify --replay


def run_analyze(space, options, budgets):
    radii = options.get("radii")
    per_scale = []
    for k in range(1, space.depth + 1):
        group = h1_at_scale(space, k)
        per_scale.append(
            {
                "scale": k,
                "radius": radii[k - 1] if radii else None,
                "components": [list(b) for b in chain_components(space, k).blocks],
                "h1_rank": group.rank,
                "h1_torsion": list(group.torsion),
            }
        )
    results = {
        "per_scale": per_scale,
        "critical_scales": [list(p) for p in critical_scales(space)],
    }
    return results, EXIT_OK


def barcode_csv(results) -> str:
    lines = ["scale,radius,components,h1_rank,h1_torsion"]
    for row in results["per_scale"]:
        radius = "" if row["radius"] is None else row["radius"]
        torsion = "|".join(str(d) for d in row["h1_torsion"])
        lines.append(
            f"{row['scale']},{radius},{len(row['components'])},{row['h1_rank']},{torsion}"
        )
    return "\n".join(lines) + "\n"


def run_cover(space, options, budgets):
    cover = build_cover(
        space,
        options["scale"],
        options["basepoint"],
        budgets["radius"],
        budgets["ident_budget"],
    )
    report = verify_endpoint_ucm(cover)
    results = {
        "vertices": [list(r) for r in cover.reps],
        "endpoints": list(cover.endpoints),
        "num_vertices": cover.num_vertices,
        "complete": cover.complete,
        "frontier_radius": cover.frontier_radius,
        "identification_incomplete": cover.identification_incomplete,
        "unknown_pairs": cover.unknown_pairs,
        "ucm": report,
    }
    code = EXIT_INCONCLUSIVE if report.verdict == "Inconclusive" else EXIT_OK
    return results, code, cover


def run_map(f, options, budgets):
    gucm = verify_gucm(f)
    results = {
        "generates": gucm.generates,
        "chain_lifting": gucm.chain_lifting,
        "approx_uniqueness_plain": gucm.approx_uniqueness,
        "approx_uniqueness_strong": check_approx_uniqueness(f, strong=True),
        "gucm_passed": gucm.passed,
    }
    return results, EXIT_OK if gucm.passed else EXIT_COUNTEREXAMPLE


def run_quotient(f, options, budgets):
    k = options["scale"]
    quotient = build_fiber_quotient(f, k)
    factorization = factor_and_verify(f)
    results = {
        "quotient": {
            "blocks": quotient.blocks.blocks,
            "hypothesis_met": quotient.hypothesis_met,
            "singleton_property": quotient.singleton_property,
            "num_blocks": len(quotient.blocks),
        },
        "factorization": factorization,
    }
    code = EXIT_OK if factorization.verdict == "UCM" else EXIT_COUNTEREXAMPLE
    return results, code


def run_space_tower(tower, options, budgets):
    limit = assemble_limit_space(tower, budgets["product_bound"])
    results = {
        "threads": [list(t) for t in limit.space.points],
        "limit_depth": limit.space.depth,
        "limit_hausdorff": limit.space.hausdorff,
        "strong_ml": strong_ml_check(tower),
    }
    return results, EXIT_OK


def run_abelian_tower(tab, options, budgets):
    results = {"lim1": lim1_verdict(tab)}
    mode = options.get("telescope")
    if mode:
        gs = options.get("g")
        if gs is None:
            raise formats.ParseError("--telescope needs a 'g' entry in the tower file")
        results["telescoping"] = telescoping_solve(tab, formats.telescope_elements(gs), mode)
    return results, EXIT_OK


def run_action(action, options, budgets):
    results = {"diagnosis": diagnose_action(action)}
    code = EXIT_OK
    if options.get("quotient_scale") is not None:
        q = quotient_at_scale(action, options["quotient_scale"])
        results["quotient"] = {
            "scale": q.scale,
            "saturated": q.saturated,
            "subgroup_order": len(q.subgroup),
            "orbit_partition": [list(b) for b in q.space.points],
            "coset_table": [
                [list(action.perm_of_points(g)) for g in coset] for coset in q.cosets
            ],
            "normal": q.normal,
            "induced_faithful": q.induced_faithful,
            "upd_holds": q.upd_holds,
            "stabilizer_is_subgroup": q.stabilizer_is_subgroup,
        }
        if not (q.normal and q.induced_faithful and q.upd_holds):
            code = EXIT_COUNTEREXAMPLE
    if options.get("tower"):
        report = action_tower_verify(action)
        results["tower"] = report
        if report.verdict == "discrepancy":
            code = EXIT_COUNTEREXAMPLE
    return results, code


# ---------------------------------------------------------------------------
# the command table and report assembly


# report kind -> (inputs field, formats reader, formats writer, runner).  The
# functions are held by name and looked up at each call, so that wrappers
# installed on the modules after import (as bench/spans.py does) see them.
COMMANDS = {
    "analyze": ("space", "space_from_spec", "space_to_spec", "run_analyze"),
    "cover": ("space", "space_from_spec", "space_to_spec", "run_cover"),
    "map": ("map", "map_from_spec", "map_to_spec", "run_map"),
    "quotient": ("map", "map_from_spec", "map_to_spec", "run_quotient"),
    "space_tower": ("tower", "space_tower_from_spec", "space_tower_to_spec",
                    "run_space_tower"),
    "abelian_tower": ("tower", "abelian_tower_from_spec", "abelian_tower_to_spec",
                      "run_abelian_tower"),
    "action": ("action", "action_from_spec", "action_to_spec", "run_action"),
}


# A live command's (report kind, input object, options), from its flags.
def _live_space(args):
    space, radii = _load_space(args.space, args.radii)
    if args.cmd == "analyze":
        return "analyze", space, {"radii": radii}
    # --basepoint 0 names the point 0, or the point "0" when 0 is not a point
    try:
        basepoint = _integer(args.basepoint)
    except ValueError:
        basepoint = args.basepoint
    if basepoint not in space.points and args.basepoint in space.points:
        basepoint = args.basepoint
    return "cover", space, {"scale": args.scale, "basepoint": basepoint}


def _live_map(args):
    f = formats.map_from_spec(formats.load_json(args.mapfile))
    return args.cmd, f, {} if args.cmd == "map" else {"scale": args.scale}


def _live_tower(args):
    spec = formats.load_json(args.towerfile)
    if spec.get("kind") == "abelian_tower":
        options = {"telescope": args.telescope, "g": spec.get("g")}
        return "abelian_tower", formats.abelian_tower_from_spec(spec), options
    base_dir = os.path.dirname(os.path.abspath(args.towerfile))
    return "space_tower", formats.space_tower_from_spec(spec, base_dir), {}


def _live_action(args):
    action = formats.action_from_spec(formats.load_json(args.actionfile))
    return "action", action, {"quotient_scale": args.quotient_scale, "tower": args.tower}


def _run_live(args, kind, obj, options, budgets):
    """Write the inputs spec, run, and write the --barcode/--dot side files."""
    key, _, writer, runner = COMMANDS[kind]
    spec = getattr(formats, writer)(obj)
    if options.get("g") is not None:  # an abelian tower's telescope elements
        spec["g"] = options["g"]
    results, code, *cover = globals()[runner](obj, options, budgets)
    if getattr(args, "barcode", None):
        with open(args.barcode, "w") as fh:
            fh.write(barcode_csv(results))
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(cover_to_dot(*cover))
    return {key: spec}, results, code


def _replay_options(kind, obj, options):
    """A stored report's options, checked as its live flags were: ParseError
    for a value that no live command writes, such as the text "2" for a
    scale, which a report writes as a JSON integer."""
    what = "report field replay.options"

    def expect(key, types, name):
        if type(options.get(key)) not in types:
            raise formats.ParseError(f"{what}.{key} must be {name}, got {options.get(key)!r}")

    if kind in ("cover", "quotient"):
        expect("scale", (int,), "an integer")
    if kind == "action":
        expect("quotient_scale", (int, type(None)), "an integer or null")
        expect("tower", (bool,), "true or false")
    radii = options.get("radii")
    if kind == "analyze" and radii is not None and \
            len(formats._numbers(radii, f"{what}.radii")) != obj.depth:
        raise formats.ParseError(f"{what}.radii must hold one number for each of "
                                 f"the {obj.depth} scales, got {radii!r}")
    if kind == "cover":
        return {**options, "basepoint": formats._as_point(options.get("basepoint"))}
    return options


# Schema 1 also wrote a quotient report's blocks as fiber_components, and the
# factorization's quotient with whole spaces and maps; schema 2 writes that
# quotient as its blocks and g's images.  Schema 3 changes only the layout
# and the inputs' space specs, which are read in either form, so schema-2
# and schema-3 results compare alike.  Schema 4 drops the budget coset_rows,
# which bounded nothing of its own.  Schemas 1 and 2 wrote every array member
# on its own line, and their input_digest hashes the inputs in that layout.
SCHEMA_1 = "scalecover-report/1"
SCHEMAS = (SCHEMA_1, "scalecover-report/2", "scalecover-report/3", formats.SCHEMA)
_SCHEMA_1_QUOTIENT = ("base", "blocks", "g", "hypothesis_met", "q", "q_chain_lifting",
                      "scale", "singleton_property", "space")


def _schema_1_results(kind, results):
    """Replayed results in the shape a schema-1 report wrote them: for a
    quotient report, the fields that schema 2 dropped, rebuilt from the map
    and its blocks, so that every stored field is compared."""
    if kind != "quotient":
        return results
    factorization = results["factorization"]
    quotient = factorization.quotient
    if quotient is not None:
        factorization = {
            **{name: getattr(factorization, name)
               for name in formats._public_fields(type(factorization))},
            "quotient": {name: getattr(quotient, name) for name in _SCHEMA_1_QUOTIENT},
        }
    return {**results, "fiber_components": results["quotient"]["blocks"],
            "factorization": factorization}


def _stored_budgets(stored):
    """A stored report's budgets, once its schema is known: exactly the rows
    of BUDGETS, and for schemas 1 to 3 coset_rows besides, checked like the
    others and dropped, since the stored ident_budget bounded those runs."""
    schema = stored.get("schema")
    if schema not in SCHEMAS:
        raise formats.ParseError(f"report field schema must be one of "
                                 f"{', '.join(map(repr, SCHEMAS))}, got {schema!r}")
    budgets = stored.get("budgets", {})
    if not isinstance(budgets, dict):
        raise formats.ParseError(f"report field budgets must be an object, got {budgets!r}")
    names = BUDGETS.keys() if schema == formats.SCHEMA else {*BUDGETS, "coset_rows"}
    odd = sorted(budgets.keys() ^ names)
    if odd:
        what = "is not a budget" if odd[0] in budgets else "is missing"
        raise formats.ParseError(f"report field budgets.{odd[0]} {what}")
    budgets = {key: _budget(f"report field budgets.{key}", value)
               for key, value in budgets.items()}
    budgets.pop("coset_rows", None)
    return budgets


def _input_digest(schema, inputs):
    """The input_digest that a report of the schema wrote for its inputs."""
    if schema in SCHEMAS[:2]:
        text = json.dumps(inputs, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return formats.written_field(inputs)[1]


def _replay(stored, budgets):
    """Re-run a stored report from its recorded inputs and re-check the
    counterexamples that have a checker; (results, exit code)."""
    replay = formats._expect(stored.get("replay"), dict, "report field replay")
    options = formats._expect(replay.get("options"), dict, "report field replay.options")
    inputs = formats._expect(stored.get("inputs"), dict, "report field inputs")
    formats._expect(stored.get("results"), dict, "report field results")
    kind = formats._field(replay, "kind", "report field replay.kind")
    if not isinstance(kind, str) or kind not in COMMANDS:
        raise formats.ParseError(f"cannot replay report kind {kind!r}")
    key, reader, _, runner = COMMANDS[kind]
    obj = getattr(formats, reader)(formats._field(inputs, key, f"report field inputs.{key}"))
    schema = stored["schema"]
    if stored.get("input_digest") != _input_digest(schema, inputs):
        raise formats.ParseError("report field input_digest is not the digest of "
                                 "report field inputs")
    results, *_ = globals()[runner](obj, _replay_options(kind, obj, options), budgets)
    if schema == SCHEMA_1:
        results = _schema_1_results(kind, results)
    drift = formats.canonical_dumps(results) != formats.canonical_dumps(stored["results"])
    failures = []
    map_checks = ("approx_uniqueness_plain", "approx_uniqueness_strong", "chain_lifting")
    for check in map_checks if kind == "map" else ():
        field = f"report field results.{check}"
        ce = formats._expect(stored["results"].get(check), dict, field).get("counterexample")
        if ce is None:
            continue
        ce = formats.counterexample_from_spec(ce, f"{field}.counterexample")
        if not counterexample_holds(obj, ce):
            failures.append({"check": check, "reason": "counterexample no longer verifies"})
    results = {
        "replayed": replay,
        "results_identical": not drift,
        "counterexample_failures": failures,
    }
    return results, EXIT_OK if not drift and not failures else EXIT_COUNTEREXAMPLE


def _report(argv, replay, inputs, budgets, results, code):
    inputs, input_digest = formats.written_field(inputs)
    return {
        "schema": formats.SCHEMA,
        "command": list(argv),
        "replay": replay,
        "inputs": inputs,
        "input_digest": input_digest,
        "budgets": budgets,
        "results": results,
        "exit_code": code,
        "timing": None,
    }


def _input_error(argv, budgets, exc):
    return _report(argv, {"kind": "error", "options": {}}, {}, budgets,
                   {"error": f"{type(exc).__name__}: {exc}"}, EXIT_INPUT)


def _budget_flags(subcommand):
    return tuple((flag, {"help": help_text}) for flag, _, _, taker, help_text
                 in BUDGETS.values() if taker == subcommand)


# subcommand -> (help, live reader, arguments as (name or flag, add_argument options));
# verify has no live reader
SUBCOMMANDS = {
    "analyze": ("chain components, H1 per scale, critical scales", _live_space, (
        ("space", {}),
        ("--radii", {"help": "comma-separated radii for a CSV matrix"}),
        ("--barcode", {"help": "write a barcode CSV here"}),
        ("--out", {}),
    )),
    "cover": ("build a cover and verify the covering axioms", _live_space, (
        ("space", {}),
        ("--radii", {}),
        ("--scale", {"type": _int_flag, "required": True}),
        ("--basepoint", {"required": True}),
        *_budget_flags("cover"),
        ("--dot", {"help": "write the cover graph here"}),
        ("--out", {}),
    )),
    "map": ("generation, lifting, uniqueness, gucm verdict", _live_map, (
        ("mapfile", {}),
        ("--out", {}),
    )),
    "quotient": ("fiber quotient and factorization at a scale", _live_map, (
        ("mapfile", {}),
        ("--scale", {"type": _int_flag, "required": True}),
        ("--out", {}),
    )),
    "tower": ("limits, strong-ML, lim1, telescoping", _live_tower, (
        ("towerfile", {}),
        ("--lim1", {"action": "store_true",
                    "help": "included for compatibility; lim1 always reported"}),
        ("--telescope", {"choices": ["forward", "backward"]}),
        *_budget_flags("tower"),
        ("--out", {}),
    )),
    "action": ("diagnosis, quotients, tower verification", _live_action, (
        ("actionfile", {}),
        ("--quotient-scale", {"type": _int_flag, "dest": "quotient_scale"}),
        ("--tower", {"action": "store_true"}),
        ("--out", {}),
    )),
    "verify": ("re-run a report's analysis and counterexamples", None, (
        ("--replay", {"required": True}),
        ("--out", {}),
    )),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors, reported with exit 3."""

    def error(self, message):
        raise formats.ParseError(message)


def _parser(argv):
    """The parser for argv: only the subparser that argv[0] names, or all of
    them when it names none (top-level help, or an unknown or missing
    command), so that argparse lists every choice."""
    parser = _Parser(
        prog="scalecover",
        description="verifiers for scale-filtered spaces, covers, quotients, "
                    "towers and group actions",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    for name in names:
        help_text, live, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(live=live)
        for name_or_flag, options in arguments:
            p.add_argument(name_or_flag, **options)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = None
    budgets = {}

    try:
        args = _parser(argv).parse_args(argv)
        budgets = _overridden({name: row[2] for name, row in BUDGETS.items()})
        if args.cmd == "verify":
            stored = formats.load_json(args.replay)
            budgets = _stored_budgets(stored)
            kind, options = "verify", {}
            inputs = {"report_digest": stored.get("input_digest")}
            results, code = _replay(stored, budgets)
        else:
            kind, obj, options = args.live(args)
            budgets = _overridden(budgets, args)  # after the inputs: a bad input is named first
            inputs, results, code = _run_live(args, kind, obj, options, budgets)
        report = _report([args.cmd] + argv[1:], {"kind": kind, "options": options},
                         inputs, budgets, results, code)
    except ProductTooLarge as exc:
        report = _report(argv, {"kind": "error", "options": {}}, {}, budgets,
                         {"error": str(exc), "exhausted": "product_bound"},
                         EXIT_INCONCLUSIVE)
    except (formats.ParseError, SpaceError, OSError, KeyError, ValueError) as exc:
        report = _input_error(argv, budgets, exc)

    text = formats.canonical_dumps(report)
    out_path = getattr(args, "out", None)
    if out_path:
        # a report that cannot be written is replaced by an input-error report
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            report = _input_error(argv, budgets, exc)
            text = formats.canonical_dumps(report)
    sys.stdout.write(text)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
