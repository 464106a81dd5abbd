#!/usr/bin/env python3
"""scalecover benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload homology --seed 1 --seconds 30 --trace 0

Runs passes of the workload's job list (see workloads.py) through
``scalecover.cli.main`` in this process until ``--seconds`` would be
exceeded, checks every report against the known answers, and prints one
JSON object as the last line of standard output.  With ``--trace 0`` it
reports the end-to-end metrics, timed against a reference loop run between
jobs (see ``reference_s``); with ``--trace 1`` it alternates an untraced and
a traced pass on the same inputs and reports per-layer self times, work
counts and the tracing overhead, plus the ROADMAP baseline rows.

Every pass starts from a fresh import of scalecover, so its memoized results
live exactly as long as one pass, as in one CLI process per workload.
Inputs are written under .bench_work/ in the checkout and removed at exit;
the per-job record (argv, seconds, exit code, verdict fields and the sha256
of each report) stays in .bench_work/records/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import answers  # noqa: E402  (the bench directory is on sys.path as the script's own)
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BASELINE_CAP_S = 5.0  # ROADMAP rows slower than this are listed, not rerun
REF_NOMINAL_S = 0.007  # reference_s() on a quiet 2-core machine, Python 3.11.7
MIN_JOBS = 100  # so the 90th percentile has at least ten samples above it
MEMORY_LIMIT = 4 << 30  # address-space cap: a runaway job fails, not the machine


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", metavar="RECORD",
                   help="an earlier record of the same workload and seed; "
                        "report jobs whose report digest changed")
    return p.parse_args(argv)


def pin_environment(argv) -> None:
    """Re-exec with PYTHONHASHSEED=0 and no SCALECOVER_* budget overrides."""
    if os.environ.get("PYTHONHASHSEED") == "0" and not any(
            k.startswith("SCALECOVER_") for k in os.environ):
        return
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCALECOVER_")}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def import_fresh() -> dict:
    """Import scalecover from scratch; layer name -> module."""
    for name in [m for m in sys.modules if m == "scalecover" or m.startswith("scalecover.")]:
        del sys.modules[name]
    importlib.import_module("scalecover.cli")
    return {layer: sys.modules[f"scalecover.{layer}"] for layer in spans.LAYERS}


def construct(mods, job, path):
    """Build the job's input object through the public readers."""
    fmt = mods["formats"]
    if job.ext == ".csv":
        radii = [int(r) for r in job.flags[job.flags.index("--radii") + 1].split(",")]
        return mods["spaces"].from_metric(fmt.parse_distance_csv(Path(path).read_text()), radii)
    reader = {"analyze": fmt.space_from_spec, "cover": fmt.space_from_spec,
              "map": fmt.map_from_spec, "quotient": fmt.map_from_spec,
              "action": fmt.action_from_spec, "tower": fmt.space_tower_from_spec}
    return reader[job.command](fmt.load_json(path))


def reference_s() -> float:
    """Seconds for a fixed pure-Python workload of tuples, sets and dicts.

    Shared 2-core machines slow every process down by 30-70 % for phases
    of seconds to minutes (measured with this loop alone), which swamps
    run-to-run comparisons.  Each timing is therefore rescaled by this
    loop's time measured around it: normalized = seconds * REF_NOMINAL_S /
    reference, i.e. seconds on a machine where the loop takes REF_NOMINAL_S.
    The cyclic collector is off meanwhile, so the heap the jobs left behind
    does not leak into the reference.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen, index = set(), {}
        for i in range(20_000):
            key = (i % 97, (i * 7) % 89)
            if key not in seen:
                seen.add(key)
                index[key] = len(index)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_job(mods, job, path) -> dict:
    argv = job.argv(path)
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(argv)
    except (Exception, SystemExit) as exc:  # any escape from the CLI is a failed job
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    got = None
    if error is None:
        try:
            got = answers.verdict(job.command, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable report: {type(exc).__name__}: {exc}"
    ok = error is None and code == job.exit_code and got == job.expect
    return {"family": job.family, "size": job.size, "argv": argv, "seconds": seconds,
            "exit_code": code, "verdict": got, "ok": ok, "error": error,
            "report_bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def write_inputs(workload, seed, index, smallest=False) -> tuple:
    """Pass ``index``'s jobs for this seed, with their input files written.

    Each pass draws its own inputs, so a run averages over several noisy
    clouds, whose work depends on the jitter; the other families differ only
    in their labels.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = workloads.build_pass(workload, rng, smallest)
    wdir = WORK / f"{workload}-seed{seed}" / f"pass{index}"
    wdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = wdir / f"job{i:02d}{job.ext}"
        path.write_text(job.text)
        paths.append(os.path.relpath(path, ROOT))
    return jobs, paths


def run_pass(jobs, paths, index, traced=False) -> dict:
    """One pass: time a fresh import plus input construction, run every job."""
    gc.collect()
    tracer = spans.Tracer() if traced else None
    refs = [reference_s()]
    t0 = time.perf_counter()
    with tracer.timed_imports() if traced else contextlib.nullcontext():
        mods = import_fresh()
    built = [construct(mods, job, path) for job, path in zip(jobs, paths)]
    setup_s = time.perf_counter() - t0
    del built
    if traced:
        tracer.install(mods)
    records = []
    for job, path in zip(jobs, paths):
        refs.append(reference_s())
        before = dict(tracer.self_s) if tracer else None
        rec = run_job(mods, job, path)
        if tracer:
            rec["self_s"] = {k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()
                             if v - before.get(k, 0.0)}
            rec["traced_s"] = tracer.root_s[-1] if tracer.root_s else None
        records.append(rec)
    refs.append(reference_s())
    for i, rec in enumerate(records, start=1):
        rec["ref_s"] = (refs[i] + refs[i + 1]) / 2
        rec["norm_s"] = rec["seconds"] * REF_NOMINAL_S / rec["ref_s"]
    unseen = spans.unseen_boundaries(mods) if traced else None
    return {"index": index, "traced": traced, "setup_s": setup_s,
            "setup_norm_s": setup_s * REF_NOMINAL_S / ((refs[0] + refs[1]) / 2),
            "jobs": records, "tracer": tracer, "unseen": unseen}


def run_passes(args) -> list:
    """Passes (pairs of untraced and traced passes with --trace 1) until the
    next one would overrun --seconds and, untraced, MIN_JOBS jobs were timed."""
    passes = []
    start = time.perf_counter()
    index = 0
    while True:
        jobs, paths = write_inputs(args.workload, args.seed, index)
        passes.append(run_pass(jobs, paths, index))
        if args.trace:
            passes.append(run_pass(jobs, paths, index, traced=True))
        index += 1
        elapsed = time.perf_counter() - start
        timed = sum(len(p["jobs"]) for p in passes if not p["traced"])
        if elapsed + elapsed / index > args.seconds and (args.trace or timed >= MIN_JOBS):
            return passes


def percentile_90(values):
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _timings(passes, job_key, setup_key) -> dict:
    times = [j[job_key] for p in passes for j in p["jobs"]]
    rates = [sum(j["ok"] for j in p["jobs"]) / sum(j[job_key] for j in p["jobs"])
             for p in passes]
    return {
        "setup_s": (statistics.median(p[setup_key] for p in passes), "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (percentile_90(times)[0], "s"),
    }


def end_to_end(passes) -> tuple:
    """Normalized timings (see reference_s) and the peak RSS."""
    metrics = _timings(passes, "norm_s", "setup_norm_s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    jobs = sum(len(p["jobs"]) for p in passes)
    _, beyond = percentile_90([j["norm_s"] for p in passes for j in p["jobs"]])
    refs = [j["ref_s"] for p in passes for j in p["jobs"]]
    notes = [f"{jobs} jobs in {len(passes)} passes of {len(passes[0]['jobs'])}; "
             f"{beyond} samples above p90; setup median of {len(passes)}",
             f"timings normalized to a {REF_NOMINAL_S * 1e3:g} ms reference loop, "
             f"which took {statistics.median(refs) * 1e3:.3g} ms (median) here; "
             "wall clock:"]
    notes += [f"  {name:22s} {value:14.6g} {unit}"
              for name, (value, unit) in _timings(passes, "seconds", "setup_s").items()]
    return metrics, notes


def per_layer(passes) -> tuple:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(p["tracer"].self_s.get(layer, 0.0) for p in traced), "s")
    for counter in spans.COUNTERS:
        metrics[counter] = (
            statistics.median(p["tracer"].counts.get(counter, 0) for p in traced), "count")
    metrics["formats.report_bytes"] = (
        statistics.median(sum(j["report_bytes"] for j in p["jobs"]) for p in traced), "B")
    traced_s = sum(j["norm_s"] for p in traced for j in p["jobs"])
    plain_s = sum(j["norm_s"] for p in plain for j in p["jobs"])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "1")

    worst = max(abs(sum(j["self_s"].values()) - j["traced_s"])
                for p in traced for j in p["jobs"])
    notes = [f"{len(traced)} traced passes paired with {len(plain)} untraced ones; "
             f"per job, |sum of self times - traced job time| <= {worst:.3g} s"]
    calls = {}
    for p in traced:
        for key, n in p["tracer"].calls.items():
            calls[key] = calls.get(key, 0) + n
    notes.append("wrapped functions called: " + ", ".join(
        f"{k} x{n}" for k, n in sorted(calls.items())))
    notes.append("not wrapped, time counted in the caller's layer: "
                 + "; ".join(traced[0]["unseen"]))
    return metrics, notes, worst


# ---------------------------------------------------------------------------
# ROADMAP baseline rows, rerun with their parameters written out


def _timed(prepare, call):
    """A measure: build the input untimed, then time one call on it."""
    def measure(mods):
        obj = prepare(mods)
        t0 = time.perf_counter()
        call(mods, obj)
        return time.perf_counter() - t0
    return measure


def _cycle(mods, n, radii):
    return mods["spaces"].from_metric(gen.cycle_distance(n), radii)


def _cloud(mods, n):
    csv, radii = gen.cloud(n, random.Random(n))
    return mods["spaces"].from_metric(mods["formats"].parse_distance_csv(csv), radii)


def _rotation(mods, n):
    space = _cycle(mods, n, (2, 1, 0))
    return mods["actions"].close_group(space, [[(i + 2) % n for i in range(n)]])


def _discrete_tower(mods, n):
    spec = gen.discrete_tower_spec(list(range(n)), list(range(n, n + n // 2)))
    return mods["formats"].space_tower_from_spec(spec)


def _related_per_call(mods):
    space = _cycle(mods, 48, (2, 1, 0))
    pts = space.points
    t0 = time.perf_counter()
    for x in pts:
        for y in pts:
            for k in (1, 2, 3):
                space.related(k, x, y)
    return (time.perf_counter() - t0) / (3 * len(pts) ** 2)


def _diagnose(n):
    return _timed(lambda m: _rotation(m, n), lambda m, a: m["actions"].diagnose_action(a))


# workload -> (ROADMAP row, its seconds, parameters used here, measure or None)
BASELINE_ROWS = {
    "homology": [
        ("analyze on cloud 160 (CSV)", 17.2,
         "n=160, radii (16s^2, 4s^2), s=2pi*1000/n, jitter random.Random(160)", None),
        ("analyze on C6, in process", 0.19,
         "C6 radii (2, 1); ROADMAP timed a fresh process, mostly start-up",
         _timed(lambda m: _cycle(m, 6, (2, 1)),
                lambda m, s: m["cli"].run_analyze(s, {"radii": [2, 1]}, {}))),
        ("h1_at_scale on C120, all 3 scales", 4.3,
         "radii unstated in ROADMAP; here (3, 2, 1)",
         _timed(lambda m: _cycle(m, 120, (3, 2, 1)),
                lambda m, s: [m["rips"].h1_at_scale(s, k) for k in (1, 2, 3)])),
        ("presentation_h1, cloud 160, scale 1", 6.0, "n=160 as above", None),
    ],
    "covers": [
        ("build_cover cloud 80, scale 1, radius 3", 1.1,
         "n=80 as the ROADMAP cloud, basepoint 0, ident budget 100000",
         _timed(lambda m: _cloud(m, 80), lambda m, s: m["covers"].build_cover(s, 1, 0, 3))),
        ("build_cover cloud 160, scale 1, radius 3", 7.8, "n=160", None),
        ("build_cover cloud 320, scale 1, radius 3", 69.0, "n=320", None),
    ],
    "maps_actions": [
        ("diagnose_action rotation by 2 on C24", 0.20,
         "radii unstated in ROADMAP; here (2, 1, 0)", _diagnose(24)),
        ("diagnose_action rotation by 2 on C48", 1.7,
         "radii unstated in ROADMAP; here (2, 1, 0)", _diagnose(48)),
        ("diagnose_action rotation by 2 on C96", 30.8, "radii (2, 1, 0)", None),
        ("assemble_limit_space, 2-stage tower of 1500 discrete points", 1.7,
         "bonding unstated in ROADMAP; here X_2 = 1500 points -> X_1 = 750, "
         "i -> i // 2; its 143 MB peak is not separated here",
         _timed(lambda m: _discrete_tower(m, 1500),
                lambda m, t: m["towers"].assemble_limit_space(t))),
        ("FilteredSpace.related, seconds per call", 0.75e-6,
         "C48 radii (2, 1, 0), all point pairs at all 3 scales", _related_per_call),
    ],
}


def baseline_rows(workload) -> list:
    """Wall-clock seconds of each ROADMAP row next to its ROADMAP figure."""
    lines = []
    for row, roadmap_s, params, measure in BASELINE_ROWS[workload]:
        head = f"  {row}: ROADMAP {roadmap_s:.3g} s; {params}"
        if measure is None:
            lines.append(f"{head}; not rerun (over the {BASELINE_CAP_S:g} s cap of a traced run)")
            continue
        measured = measure(import_fresh())
        ratio = measured / roadmap_s
        verdict = "agrees" if 0.5 <= ratio <= 2 else "DISAGREES"
        lines.append(f"{head}; measured {measured:.3g} s ({ratio:.2f}x, {verdict})")
    return lines


# ---------------------------------------------------------------------------


def compare_digests(record_path, passes) -> list:
    old = json.loads(Path(record_path).read_text())
    before = {(p["index"], p["traced"], i): j["sha256"]
              for p in old["passes"] for i, j in enumerate(p["jobs"])}
    changed = [f"pass {p['index']} job {i} ({j['family']} {j['size']})"
               for p in passes for i, j in enumerate(p["jobs"])
               if before.get((p["index"], p["traced"], i), j["sha256"]) != j["sha256"]]
    return [f"report digests changed against {record_path}: {len(changed)}"] + changed


def write_record(args, passes, metrics) -> Path:
    out = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    body = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": [{"index": p["index"], "traced": p["traced"], "setup_s": p["setup_s"],
                    "setup_norm_s": p["setup_norm_s"], "jobs": p["jobs"]} for p in passes],
    }
    out.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if not (SRC / "scalecover" / "__init__.py").is_file():
        print(f"error: no scalecover sources at {SRC}", file=sys.stderr)
        return 2
    pin_environment(argv)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import scalecover
    if Path(scalecover.__file__).resolve().parent != SRC / "scalecover":
        print(f"error: imported scalecover from {scalecover.__file__}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(args)
        if args.trace:
            metrics, notes, worst = per_layer(passes)
            notes.append("ROADMAP baseline rows:")
            notes.extend(baseline_rows(args.workload))
        else:
            metrics, notes = end_to_end(passes)
            worst = 0.0
    finally:
        shutil.rmtree(WORK / f"{args.workload}-seed{args.seed}", ignore_errors=True)

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    record = write_record(args, passes, metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    print(f"{'failed_frac':24s} {len(failed) / len(jobs):14.6g} 1  "
          f"({len(failed)} of {len(jobs)} jobs)")
    for j in failed[:10]:
        print(f"FAILED {j['family']} {j['size']}: exit {j['exit_code']}, "
              f"verdict {j['verdict']}, error {j['error']}")
    for line in notes:
        print(line)
    if args.compare:
        for line in compare_digests(args.compare, passes):
            print(line)
    print(f"record: {os.path.relpath(record, ROOT)}")
    correct = not failed and worst < 1e-6
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
