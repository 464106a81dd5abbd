"""The three workloads as fixed, seeded lists of scalecover CLI jobs.

A pass is one workload's whole job list, its inputs drawn from the seed and
the pass number.  Every job has its own point labels, so within a pass no
space reaches a memoized function twice; every pass starts from a fresh
import.
Rung sizes keep one pass at a few seconds on a 2-core machine, so a run
repeats several passes.  Each list has 15 jobs and its slowest rungs are well
apart, so over P passes the median (rank 7.5P) and the 90th percentile (rank
13.5P) of job times fall mid-way through one rung's P samples.

Why these workloads:
  homology      cold `analyze` jobs: the Rips skeleton and dense integer
                Smith forms do nearly all the work; covers, actions,
                quotients and towers do none.
  covers        `cover` jobs: many word problems against one presentation
                per job, with warm caches inside the job; cache lifetime or
                presentation set-up trades off against `homology`.
  maps_actions  `action`, `map`, `quotient` and `tower` jobs: spaces.related,
                actions, quotients and towers do the work, while rips,
                intlinalg, coset and covers do none; the control workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import answers
import gen

IDENT_BUDGET = 100_000   # the CLI default, passed explicitly
PRODUCT_BOUND = 200_000  # the CLI default, passed explicitly
RP2_COVER_RADIUS = 8

# Rungs per family.  The first entry of each family is its smallest rung,
# the one the smoke test runs.
RUNGS = {
    "homology": {
        "cloud": (16, 20, 24, 32, 40, 48),   # the two slowest rungs: steadiest timings
        "king_torus": (4, 5, 6),
        "thick_cycle": (6, 9, 12, 15, 18),   # n divisible by 3, see answers.py
        "rp2": (1,),
    },
    "covers": {
        "king_torus": ((4, 2), (5, 3), (6, 4)),          # (k, radius budget)
        "cycle": ((12, 2, 8), (12, 1, 8), (24, 2, 16), (24, 1, 16),   # (n, step, R)
                  (36, 2, 24), (36, 1, 24)),
        "rp2": (1,),
        "thick_cycle": (6, 9, 12, 15, 18),
    },
    "maps_actions": {
        "rotation_action": (8, 16, 24, 32),
        "wrap_map": ((2, 8), (4, 10), (4, 20), (8, 30)),  # (m, n): C_mn -> C_n
        "wrap_quotient": ((2, 8), (4, 10), (4, 20), (8, 30)),
        "discrete_tower": (250, 500, 1000),
    },
}

WORKLOADS = tuple(RUNGS)


@dataclass(frozen=True)
class Job:
    family: str
    size: str
    command: str      # scalecover subcommand
    text: str         # contents of the input file
    ext: str          # ".json" or ".csv"
    flags: tuple      # CLI flags after the input file
    expect: dict      # known verdict fields
    exit_code: int    # known exit code

    def argv(self, path: str) -> list:
        return [self.command, path, *self.flags]


def _homology_jobs(family, size, rng, labels):
    if family == "cloud":
        csv, radii = gen.cloud(size, rng)
        expect, code = answers.analyze_cloud(size)
        return Job(family, f"n={size}", "analyze", csv, ".csv",
                   ("--radii", ",".join(map(str, radii))), expect, code)
    if family == "king_torus":
        spec = gen.king_torus_spec(labels.block(size * size))
        expect, code = answers.analyze_king_torus(size)
        return Job(family, f"k={size}", "analyze", gen.dump(spec), ".json", (),
                   expect, code)
    if family == "thick_cycle":
        spec = gen.cycle_spec(labels.block(size), gen.thickened_radii(size))
        expect, code = answers.analyze_thick_cycle(size)
        return Job(family, f"n={size}", "analyze", gen.dump(spec), ".json", (),
                   expect, code)
    if family == "rp2":
        spec = gen.rp2_spec(labels.block(gen.rp2_points(size)), size)
        expect, code = answers.analyze_rp2(size)
        return Job(family, f"sd={size}", "analyze", gen.dump(spec), ".json", (),
                   expect, code)
    raise ValueError(family)


def _cover_flags(scale, basepoint, radius):
    return ("--scale", str(scale), "--basepoint", str(basepoint),
            "--radius", str(radius), "--ident-budget", str(IDENT_BUDGET))


def _covers_jobs(family, size, rng, labels):
    if family == "king_torus":
        k, radius = size
        pts = labels.block(k * k)
        expect, code = answers.cover_king_torus(k, radius)
        return Job(family, f"k={k},R={radius}", "cover",
                   gen.dump(gen.king_torus_spec(pts)), ".json",
                   _cover_flags(1, pts[0], radius), expect, code)
    if family == "cycle":
        # radii (n//3, 2, 1): scale 2 joins steps <= 2, scale 3 steps <= 1
        n, step, radius = size
        pts = labels.block(n)
        expect, code = answers.cover_cycle(n, step, radius)
        return Job(family, f"n={n},step={step},R={radius}", "cover",
                   gen.dump(gen.cycle_spec(pts, (n // 3, 2, 1))), ".json",
                   _cover_flags(4 - step, pts[0], radius), expect, code)
    if family == "rp2":
        pts = labels.block(gen.rp2_points(size))
        expect, code = answers.cover_rp2(size, len(pts))
        return Job(family, f"sd={size}", "cover", gen.dump(gen.rp2_spec(pts, size)),
                   ".json", _cover_flags(1, pts[0], RP2_COVER_RADIUS), expect, code)
    if family == "thick_cycle":
        pts = labels.block(size)
        expect, code = answers.cover_thick_cycle(size)
        return Job(family, f"n={size}", "cover",
                   gen.dump(gen.cycle_spec(pts, gen.thickened_radii(size))), ".json",
                   _cover_flags(1, pts[0], size), expect, code)
    raise ValueError(family)


def _maps_actions_jobs(family, size, rng, labels):
    if family == "rotation_action":
        spec = gen.rotation_action_spec(labels.block(size))
        expect, code = answers.action_rotation(size)
        return Job(family, f"n={size}", "action", gen.dump(spec), ".json",
                   ("--quotient-scale", "2", "--tower"), expect, code)
    if family in ("wrap_map", "wrap_quotient"):
        m, n = size
        spec = gen.dump(gen.wrap_map_spec(labels.block(m * n), labels.block(n)))
        if family == "wrap_map":
            expect, code = answers.map_wrap(m, n)
            return Job(family, f"{m}x{n}", "map", spec, ".json", (), expect, code)
        expect, code = answers.quotient_wrap(m, n)
        return Job(family, f"{m}x{n}", "quotient", spec, ".json",
                   ("--scale", "1"), expect, code)
    if family == "discrete_tower":
        spec = gen.discrete_tower_spec(labels.block(size), labels.block(size // 2))
        expect, code = answers.tower_discrete(size)
        return Job(family, f"N={size}", "tower", gen.dump(spec), ".json",
                   ("--product-bound", str(PRODUCT_BOUND)), expect, code)
    raise ValueError(family)


_BUILDERS = {"homology": _homology_jobs, "covers": _covers_jobs,
             "maps_actions": _maps_actions_jobs}


def build_pass(workload: str, rng, smallest: bool = False) -> list:
    """The workload's job list with inputs drawn from rng (smallest rungs only
    when asked); the same rng state always gives byte-identical inputs."""
    labels = gen.Labels(rng)
    build = _BUILDERS[workload]
    jobs = []
    for family, sizes in RUNGS[workload].items():
        for size in sizes[:1] if smallest else sizes:
            jobs.append(build(family, size, rng, labels))
    return jobs
