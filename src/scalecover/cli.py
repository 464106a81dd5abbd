"""Command-line front end.

Subcommands: analyze, cover, map, quotient, tower, action, verify.  Every run
emits one deterministic JSON report (identical inputs and budgets give
byte-identical bytes) and exits with 0 when all verdicts are as claimed, 1
when a verifier found a counterexample, 2 when a budget left a verdict
inconclusive, and 3 on input errors.  Budget defaults can be overridden by
SCALECOVER_* environment variables.
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
    check_chain_lifting,
    check_generates,
    factor_and_verify,
    fiber_e_components,
    verify_gucm,
)
from .rips import DEFAULT_COSET_ROWS, h1_at_scale
from .spaces import SpaceError, chain_components, from_metric, is_chain
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
    if path.endswith(".csv"):
        if radii is None:
            raise formats.ParseError("a CSV distance matrix needs --radii")
        with open(path) as fh:
            matrix = formats.parse_distance_csv(fh.read())
        return from_metric(matrix, radii)
    return formats.space_from_spec(formats.load_json(path))


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
        "ucm": formats.to_jsonable(report),
    }
    if report.verdict == "Inconclusive":
        code = EXIT_INCONCLUSIVE
    elif report.verdict == "UCM":
        code = EXIT_OK
    else:
        code = EXIT_COUNTEREXAMPLE
    return results, code, cover


def run_map(f, options, budgets):
    gen = check_generates(f)
    lift = check_chain_lifting(f)
    plain = check_approx_uniqueness(f, strong=False)
    strong = check_approx_uniqueness(f, strong=True)
    gucm = verify_gucm(f)
    results = {
        "generates": formats.to_jsonable(gen),
        "chain_lifting": formats.to_jsonable(lift),
        "approx_uniqueness_plain": formats.to_jsonable(plain),
        "approx_uniqueness_strong": formats.to_jsonable(strong),
        "gucm_passed": gucm.passed,
    }
    return results, EXIT_OK if gucm.passed else EXIT_COUNTEREXAMPLE


def run_quotient(f, options, budgets):
    k = options["scale"]
    components = fiber_e_components(f, k)
    quotient = build_fiber_quotient(f, k)
    factorization = factor_and_verify(f, k)
    results = {
        "fiber_components": [list(b) for b in components.blocks],
        "quotient": {
            "blocks": [list(b) for b in quotient.blocks.blocks],
            "hypothesis_met": quotient.hypothesis_met,
            "singleton_property": quotient.singleton_property,
            "num_blocks": len(quotient.space.points),
        },
        "factorization": formats.to_jsonable(factorization),
    }
    code = EXIT_OK if factorization.verdict == "UCM" else EXIT_COUNTEREXAMPLE
    return results, code


def run_space_tower(tower, options, budgets):
    limit = assemble_limit_space(tower, budgets["product_bound"])
    ml = strong_ml_check(tower, limit)
    results = {
        "threads": [list(t) for t in limit.space.points],
        "limit_depth": limit.space.depth,
        "limit_hausdorff": limit.space.hausdorff,
        "strong_ml": formats.to_jsonable(ml),
    }
    return results, EXIT_OK


def run_abelian_tower(tab, options, budgets):
    results = {"lim1": formats.to_jsonable(lim1_verdict(tab))}
    mode = options.get("telescope")
    if mode:
        gs = options.get("g")
        if gs is None:
            raise formats.ParseError("--telescope needs a 'g' entry in the tower file")
        solved = telescoping_solve(tab, formats.telescope_elements(gs), mode)
        results["telescoping"] = formats.to_jsonable(solved)
    return results, EXIT_OK


def run_action(action, options, budgets):
    diagnosis = diagnose_action(action)
    results = {"diagnosis": formats.to_jsonable(diagnosis)}
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
        results["tower"] = formats.to_jsonable(report)
        if report.verdict == "discrepancy":
            code = EXIT_COUNTEREXAMPLE
    return results, code


# ---------------------------------------------------------------------------
# report assembly


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


def _replay_dispatch(replay, inputs, budgets):
    kind = replay["kind"]
    options = replay["options"]
    if kind == "analyze":
        space = formats.space_from_spec(inputs["space"])
        return run_analyze(space, options, budgets)[:2]
    if kind == "cover":
        space = formats.space_from_spec(inputs["space"])
        results, code, _ = run_cover(space, options, budgets)
        return results, code
    if kind == "map":
        return run_map(formats.map_from_spec(inputs["map"]), options, budgets)
    if kind == "quotient":
        return run_quotient(formats.map_from_spec(inputs["map"]), options, budgets)
    if kind == "space_tower":
        return run_space_tower(
            formats.space_tower_from_spec(inputs["tower"]), options, budgets
        )
    if kind == "abelian_tower":
        return run_abelian_tower(
            formats.abelian_tower_from_spec(inputs["tower"]), options, budgets
        )
    if kind == "action":
        return run_action(formats.action_from_spec(inputs["action"]), options, budgets)
    raise formats.ParseError(f"cannot replay report kind {kind!r}")


def _reverify_counterexamples(report) -> list:
    """Re-run the replayable counterexamples recorded in a report."""
    failures = []
    results = report.get("results", {})
    inputs = report.get("inputs", {})
    for key in ("approx_uniqueness_plain", "approx_uniqueness_strong"):
        entry = results.get(key)
        if not entry or not entry.get("counterexample"):
            continue
        ce = entry["counterexample"]
        f = formats.map_from_spec(inputs["map"])
        left, right = ce["chains"]
        left = [formats._as_point(p) for p in left]
        right = [formats._as_point(p) for p in right]
        j = ce["finer_scale"]
        close_scale = j if entry["mode"] == "strong" else ce["source_scale"]
        ok = (
            is_chain(f.source, j, left)
            and is_chain(f.source, j, right)
            and left[0] == right[0]
            and all(f(a) == f(b) for a, b in zip(left, right))
            and not f.source.related(close_scale, left[-1], right[-1])
        )
        if not ok:
            failures.append({"check": key, "reason": "counterexample no longer verifies"})
    lifting = results.get("chain_lifting")
    if lifting and lifting.get("counterexample"):
        ce = lifting["counterexample"]
        f = formats.map_from_spec(inputs["map"])
        x = formats._as_point(ce["from_point"])
        y = formats._as_point(ce["step_to"])
        e = ce["source_scale"]
        liftable = any(
            f(x2) == y and f.source.related(e, x, x2) for x2 in f.source.points
        )
        if not f.target.related(ce["target_scale"], f(x), y) or liftable:
            failures.append({"check": "chain_lifting",
                             "reason": "counterexample no longer verifies"})
    return failures


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="scalecover",
        description="verifiers for scale-filtered spaces, covers, quotients, "
                    "towers and group actions",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="chain components, H1 per scale, critical scales")
    p.add_argument("space")
    p.add_argument("--radii", help="comma-separated radii for a CSV matrix")
    p.add_argument("--barcode", help="write a barcode CSV here")
    p.add_argument("--out")

    p = sub.add_parser("cover", help="build a cover and verify the covering axioms")
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
    p.add_argument("mapfile")
    p.add_argument("--out")

    p = sub.add_parser("quotient", help="fiber quotient and factorization at a scale")
    p.add_argument("mapfile")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("tower", help="limits, strong-ML, lim1, telescoping")
    p.add_argument("towerfile")
    p.add_argument("--lim1", action="store_true",
                   help="included for compatibility; lim1 always reported")
    p.add_argument("--telescope", choices=["forward", "backward"])
    p.add_argument("--product-bound", dest="product_bound")
    p.add_argument("--out")

    p = sub.add_parser("action", help="diagnosis, quotients, tower verification")
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
        if args.cmd == "analyze":
            radii = [float(r) if "." in r else int(r) for r in args.radii.split(",")] \
                if args.radii else None
            space = _load_space(args.space, radii)
            inputs = {"space": formats.space_to_spec(space)}
            options = {"radii": radii}
            results, code = run_analyze(space, options, budgets)
            if args.barcode:
                with open(args.barcode, "w") as fh:
                    fh.write(barcode_csv(results))
            report = _report(["analyze"] + argv[1:],
                             {"kind": "analyze", "options": options},
                             inputs, budgets, results, code)
        elif args.cmd == "cover":
            radii = [float(r) if "." in r else int(r) for r in args.radii.split(",")] \
                if args.radii else None
            space = _load_space(args.space, radii)
            if args.radius is not None:
                budgets["radius"] = _budget("--radius", args.radius)
            if args.coset_rows is not None:
                budgets["coset_rows"] = _budget("--coset-rows", args.coset_rows)
                budgets["ident_budget"] = budgets["coset_rows"]
            if args.ident_budget is not None:
                budgets["ident_budget"] = _budget("--ident-budget", args.ident_budget)
            options = {"scale": args.scale, "basepoint": _parse_point(args.basepoint)}
            inputs = {"space": formats.space_to_spec(space)}
            results, code, cover = run_cover(space, options, budgets)
            if args.dot:
                with open(args.dot, "w") as fh:
                    fh.write(cover_to_dot(cover))
            report = _report(["cover"] + argv[1:],
                             {"kind": "cover", "options": options},
                             inputs, budgets, results, code)
        elif args.cmd == "map":
            f = formats.map_from_spec(formats.load_json(args.mapfile))
            inputs = {"map": formats.map_to_spec(f)}
            results, code = run_map(f, {}, budgets)
            report = _report(["map"] + argv[1:], {"kind": "map", "options": {}},
                             inputs, budgets, results, code)
        elif args.cmd == "quotient":
            f = formats.map_from_spec(formats.load_json(args.mapfile))
            inputs = {"map": formats.map_to_spec(f)}
            options = {"scale": args.scale}
            results, code = run_quotient(f, options, budgets)
            report = _report(["quotient"] + argv[1:],
                             {"kind": "quotient", "options": options},
                             inputs, budgets, results, code)
        elif args.cmd == "tower":
            spec = formats.load_json(args.towerfile)
            if args.product_bound is not None:
                budgets["product_bound"] = _budget("--product-bound", args.product_bound)
            if spec.get("kind") == "abelian_tower":
                tab = formats.abelian_tower_from_spec(spec)
                options = {"telescope": args.telescope, "g": spec.get("g")}
                inputs = {"tower": formats.abelian_tower_to_spec(tab)}
                if spec.get("g") is not None:
                    inputs["tower"]["g"] = spec["g"]
                results, code = run_abelian_tower(tab, options, budgets)
                replay = {"kind": "abelian_tower", "options": options}
            else:
                tower = formats.space_tower_from_spec(
                    spec, os.path.dirname(os.path.abspath(args.towerfile))
                )
                options = {}
                inputs = {"tower": formats.space_tower_to_spec(tower)}
                results, code = run_space_tower(tower, options, budgets)
                replay = {"kind": "space_tower", "options": options}
            report = _report(["tower"] + argv[1:], replay, inputs, budgets,
                             results, code)
        elif args.cmd == "action":
            action = formats.action_from_spec(formats.load_json(args.actionfile))
            inputs = {"action": formats.action_to_spec(action)}
            options = {"quotient_scale": args.quotient_scale, "tower": args.tower}
            results, code = run_action(action, options, budgets)
            report = _report(["action"] + argv[1:],
                             {"kind": "action", "options": options},
                             inputs, budgets, results, code)
        else:  # verify --replay
            stored = formats.load_json(args.replay)
            stored_budgets = stored.get("budgets", budgets)
            if not isinstance(stored_budgets, dict):
                raise formats.ParseError(
                    f"report field budgets must be an object, got {stored_budgets!r}")
            budgets = {key: _budget(f"report field budgets.{key}", value)
                       for key, value in stored_budgets.items()}
            replay = formats._expect(stored.get("replay"), dict, "report field replay")
            formats._expect(replay.get("options"), dict, "report field replay.options")
            inputs = formats._expect(stored.get("inputs"), dict, "report field inputs")
            formats._expect(stored.get("results"), dict, "report field results")
            results, code = _replay_dispatch(replay, inputs, budgets)
            drift = formats.canonical_dumps(results) != formats.canonical_dumps(
                stored["results"]
            )
            witness_failures = _reverify_counterexamples(stored)
            ok = not drift and not witness_failures
            results = {
                "replayed": stored["replay"],
                "results_identical": not drift,
                "counterexample_failures": witness_failures,
            }
            code = EXIT_OK if ok else EXIT_COUNTEREXAMPLE
            report = _report(["verify"] + argv[1:],
                             {"kind": "verify", "options": {}},
                             {"report_digest": stored.get("input_digest")},
                             budgets, results, code)
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
