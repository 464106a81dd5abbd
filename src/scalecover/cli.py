"""Command-line front end.

Subcommands: analyze, cover, map, quotient, tower, action, verify.  Every run
emits one deterministic JSON report (identical inputs and budgets give
byte-identical bytes) and exits with 0 when all verdicts are as claimed, 1
when a verifier found a counterexample, 2 when a budget left a verdict
inconclusive, and 3 on input errors.  Budget defaults can be overridden by
SCALECOVER_* environment variables.

A live command turns its flags into (report kind, input object, options).
The table COMMANDS gives each kind its inputs field, spec reader and writer
and runner, so live runs and ``verify --replay`` share one path.  Runners
return library objects; the report is converted to JSON once, on output.
"""

from __future__ import annotations

import argparse
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


def _budget(name, raw):
    """A budget given on the command line, in the environment or in a report."""
    try:
        value = int(raw)
        if value >= 0 and not isinstance(raw, (bool, float)):
            return value
    except (TypeError, ValueError):
        pass
    raise formats.ParseError(f"{name} must be a nonnegative integer, got {raw!r}")


def _env_budget(name, default):
    value = os.environ.get(name)
    return _budget(name, value) if value else default


def default_budgets():
    return {
        "radius": _env_budget("SCALECOVER_RADIUS", 8),
        "ident_budget": _env_budget("SCALECOVER_IDENT_BUDGET", DEFAULT_COSET_ROWS),
        "coset_rows": _env_budget("SCALECOVER_COSET_ROWS", DEFAULT_COSET_ROWS),
        "product_bound": _env_budget("SCALECOVER_PRODUCT_BOUND", DEFAULT_PRODUCT_BOUND),
    }


def _parse_point(text):
    try:
        return int(text)
    except ValueError:
        return text


def _load_space(path, radii):
    """The space of a CSV matrix or a JSON spec, and the --radii as numbers."""
    radii = [float(r) if "." in r else int(r) for r in radii.split(",")] if radii else None
    if path.endswith(".csv"):
        if radii is None:
            raise formats.ParseError("a CSV distance matrix needs --radii")
        with open(path) as fh:
            matrix = formats.parse_distance_csv(fh.read())
        return from_metric(matrix, radii), radii
    return formats.space_from_spec(formats.load_json(path)), radii


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
    report = verify_endpoint_ucm(space, options["scale"], cover)
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
    if report.verdict == "Inconclusive":
        code = EXIT_INCONCLUSIVE
    elif report.verdict == "UCM":
        code = EXIT_OK
    else:
        code = EXIT_COUNTEREXAMPLE
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
    factorization = factor_and_verify(f, k)
    results = {
        "fiber_components": quotient.blocks.blocks,
        "quotient": {
            "blocks": quotient.blocks.blocks,
            "hypothesis_met": quotient.hypothesis_met,
            "singleton_property": quotient.singleton_property,
            "num_blocks": len(quotient.space.points),
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
        "strong_ml": strong_ml_check(tower, limit),
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


# A live command's (report kind, input object, options), from its flags; its
# budget flags are applied to budgets in place.
def _live_space(args, budgets):
    space, radii = _load_space(args.space, args.radii)
    if args.cmd == "analyze":
        return "analyze", space, {"radii": radii}
    if args.radius is not None:
        budgets["radius"] = _budget("--radius", args.radius)
    if args.coset_rows is not None:
        budgets["coset_rows"] = _budget("--coset-rows", args.coset_rows)
        budgets["ident_budget"] = budgets["coset_rows"]
    if args.ident_budget is not None:
        budgets["ident_budget"] = _budget("--ident-budget", args.ident_budget)
    return "cover", space, {"scale": args.scale, "basepoint": _parse_point(args.basepoint)}


def _live_map(args, budgets):
    f = formats.map_from_spec(formats.load_json(args.mapfile))
    return args.cmd, f, {} if args.cmd == "map" else {"scale": args.scale}


def _live_tower(args, budgets):
    spec = formats.load_json(args.towerfile)
    if args.product_bound is not None:
        budgets["product_bound"] = _budget("--product-bound", args.product_bound)
    if spec.get("kind") == "abelian_tower":
        options = {"telescope": args.telescope, "g": spec.get("g")}
        return "abelian_tower", formats.abelian_tower_from_spec(spec), options
    base_dir = os.path.dirname(os.path.abspath(args.towerfile))
    return "space_tower", formats.space_tower_from_spec(spec, base_dir), {}


def _live_action(args, budgets):
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


def _replay(stored, budgets):
    """Re-run a stored report from its recorded inputs and re-check the
    counterexamples that have a checker; (results, exit code)."""
    replay = formats._expect(stored.get("replay"), dict, "report field replay")
    options = formats._expect(replay.get("options"), dict, "report field replay.options")
    inputs = formats._expect(stored.get("inputs"), dict, "report field inputs")
    formats._expect(stored.get("results"), dict, "report field results")
    kind = replay["kind"]
    if not isinstance(kind, str) or kind not in COMMANDS:
        raise formats.ParseError(f"cannot replay report kind {kind!r}")
    key, reader, _, runner = COMMANDS[kind]
    obj = getattr(formats, reader)(inputs[key])
    results, *_ = globals()[runner](obj, options, budgets)
    drift = formats.canonical_dumps(results) != formats.canonical_dumps(stored["results"])
    failures = []
    map_checks = ("approx_uniqueness_plain", "approx_uniqueness_strong", "chain_lifting")
    for check in map_checks if kind == "map" else ():
        ce = (stored["results"].get(check) or {}).get("counterexample")
        if ce and not counterexample_holds(obj, {k: formats._as_point(v) for k, v in ce.items()}):
            failures.append({"check": check, "reason": "counterexample no longer verifies"})
    results = {
        "replayed": replay,
        "results_identical": not drift,
        "counterexample_failures": failures,
    }
    return results, EXIT_OK if not drift and not failures else EXIT_COUNTEREXAMPLE


def _emit(report: dict, out_path):
    text = formats.canonical_dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _report(argv, replay, inputs, budgets, results, code):
    return {
        "schema": formats.SCHEMA,
        "command": list(argv),
        "replay": replay,
        "inputs": inputs,
        "input_digest": formats.digest(inputs),
        "budgets": budgets,
        "results": results,
        "exit_code": code,
        "timing": None,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="scalecover",
        description="verifiers for scale-filtered spaces, covers, quotients, "
                    "towers and group actions",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="chain components, H1 per scale, critical scales")
    p.set_defaults(live=_live_space)
    p.add_argument("space")
    p.add_argument("--radii", help="comma-separated radii for a CSV matrix")
    p.add_argument("--barcode", help="write a barcode CSV here")
    p.add_argument("--out")

    p = sub.add_parser("cover", help="build a cover and verify the covering axioms")
    p.set_defaults(live=_live_space)
    p.add_argument("space")
    p.add_argument("--radii")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--basepoint", required=True)
    p.add_argument("--radius")
    p.add_argument("--ident-budget", dest="ident_budget")
    p.add_argument("--coset-rows", dest="coset_rows",
                   help="row budget for the identification enumerations")
    p.add_argument("--dot", help="write the cover graph here")
    p.add_argument("--out")

    p = sub.add_parser("map", help="generation, lifting, uniqueness, gucm verdict")
    p.set_defaults(live=_live_map)
    p.add_argument("mapfile")
    p.add_argument("--out")

    p = sub.add_parser("quotient", help="fiber quotient and factorization at a scale")
    p.set_defaults(live=_live_map)
    p.add_argument("mapfile")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("tower", help="limits, strong-ML, lim1, telescoping")
    p.set_defaults(live=_live_tower)
    p.add_argument("towerfile")
    p.add_argument("--lim1", action="store_true",
                   help="included for compatibility; lim1 always reported")
    p.add_argument("--telescope", choices=["forward", "backward"])
    p.add_argument("--product-bound", dest="product_bound")
    p.add_argument("--out")

    p = sub.add_parser("action", help="diagnosis, quotients, tower verification")
    p.set_defaults(live=_live_action)
    p.add_argument("actionfile")
    p.add_argument("--quotient-scale", type=int, dest="quotient_scale")
    p.add_argument("--tower", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="re-run a report's analysis and counterexamples")
    p.add_argument("--replay", required=True)
    p.add_argument("--out")

    args = parser.parse_args(argv)
    budgets = {}

    try:
        budgets = default_budgets()
        if args.cmd == "verify":
            stored = formats.load_json(args.replay)
            stored_budgets = stored.get("budgets", budgets)
            if not isinstance(stored_budgets, dict):
                raise formats.ParseError(
                    f"report field budgets must be an object, got {stored_budgets!r}")
            budgets = {key: _budget(f"report field budgets.{key}", value)
                       for key, value in stored_budgets.items()}
            kind, options = "verify", {}
            inputs = {"report_digest": stored.get("input_digest")}
            results, code = _replay(stored, budgets)
        else:
            kind, obj, options = args.live(args, budgets)
            inputs, results, code = _run_live(args, kind, obj, options, budgets)
        report = _report([args.cmd] + argv[1:], {"kind": kind, "options": options},
                         inputs, budgets, results, code)
    except ProductTooLarge as exc:
        report = _report(argv, {"kind": "error", "options": {}}, {}, budgets,
                         {"error": str(exc), "exhausted": "product_bound"},
                         EXIT_INCONCLUSIVE)
        _emit(report, getattr(args, "out", None))
        return EXIT_INCONCLUSIVE
    except (formats.ParseError, SpaceError, OSError, KeyError, ValueError) as exc:
        report = _report(argv, {"kind": "error", "options": {}}, {}, budgets,
                         {"error": f"{type(exc).__name__}: {exc}"}, EXIT_INPUT)
        _emit(report, getattr(args, "out", None))
        return EXIT_INPUT

    _emit(report, args.out)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
