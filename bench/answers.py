"""Known answers for every job family, from closed forms only.

None of these values was read off scalecover's output.  Each family's
smallest rung is cross-checked against sympy, networkx or brute force in
``test_bench.py``.  ``verdict`` extracts the same fields from a report, so a
job passes exactly when ``verdict(report) == expected`` and the exit code is
the expected one.
"""

from __future__ import annotations

EXIT_OK, EXIT_INCONCLUSIVE = 0, 2


def _analyze(per_scale, critical=()):
    """per_scale: (components, h1 rank, h1 torsion) for scales 1..m."""
    return {"per_scale": [[c, r, list(t)] for c, r, t in per_scale],
            "critical_scales": [list(p) for p in critical]}


# -- homology: scalecover analyze ------------------------------------------

def analyze_cloud(n):
    """Noisy circle at distance radii 4s and 2s (steps < n/3): a circle twice,
    and the inclusion is an isomorphism on H1 = Z."""
    return _analyze([(1, 1, ()), (1, 1, ())]), EXIT_OK


def analyze_king_torus(k):
    """Rips complex of the k x k king-move torus at radius 1: H1 = Z^2."""
    return _analyze([(1, 2, ())]), EXIT_OK


def analyze_thick_cycle(n):
    """C_n, n = 3r, at radii (r, 1): the Rips complex of C_{3r} at step r is a
    wedge of 2-spheres (Adamaszek-Adams), so H1 = 0 at scale 1; scale 2 is the
    circle, so the scale pair (1, 2) is critical."""
    return _analyze([(1, 0, ()), (1, 1, ())], [(1, 2)]), EXIT_OK


def analyze_rp2(level):
    """Any subdivision of RP^2 is a flag complex with H1 = Z/2."""
    return _analyze([(1, 0, (2,))]), EXIT_OK


# -- covers: scalecover cover ----------------------------------------------

def _cover(vertices, complete, verdict):
    return {"num_vertices": vertices, "complete": complete,
            "identification_incomplete": False, "verdict": verdict}


def cover_king_torus(k, radius):
    """The universal cover is the king-move grid Z^2 (pi_1 = Z^2); a radius
    budget R reaches its king ball, (2R+1)^2 classes, and never completes."""
    return _cover((2 * radius + 1) ** 2, False, "Inconclusive"), EXIT_INCONCLUSIVE


def cover_cycle(n, step, radius):
    """C_n at a scale joining points up to ``step`` apart (step < n/3): the
    cover is the line with steps <= step, so R rounds reach 2*step*R + 1."""
    return _cover(2 * step * radius + 1, False, "Inconclusive"), EXIT_INCONCLUSIVE


def cover_rp2(level, points):
    """pi_1(RP^2) = Z/2: the universal cover is the sphere, two classes over
    every point, and it is a uniform covering map."""
    return _cover(2 * points, True, "UCM"), EXIT_OK


def cover_thick_cycle(n):
    """Scale 1 of C_{3r} at step r is simply connected (a wedge of 2-spheres):
    the cover is the space itself."""
    return _cover(n, True, "UCM"), EXIT_OK


# -- maps_actions: scalecover action / map / quotient / tower ---------------

def action_rotation(n):
    """Rotation by 2 on C_n, radii (2, 1, 0): a cyclic group of order n/2.
    Every nontrivial element moves each point by >= 2, so proper
    discontinuity holds at scales 2 and 3 (finest 3) but not at scale 1; the
    group is abelian, so every subgroup is normal; the action is isometric
    and the space Hausdorff, so the quotient tower reconstructs it."""
    return {"group_order": n // 2, "upd_scale": 3, "normal": True,
            "tower": "verified"}, EXIT_OK


def map_wrap(m, n):
    """The m-fold wrap C_{mn} -> C_n at radii (2, 1), n >= 8, is a local
    isometry on 2-balls: a generalized uniform covering map."""
    return {"gucm_passed": True}, EXIT_OK


def quotient_wrap(m, n):
    """Fibers of the wrap are n apart, so its fiber quotient at scale 1 is the
    source itself and the factorization is the covering map again."""
    return {"factorization": "UCM"}, EXIT_OK


def tower_discrete(n):
    """X_2 (n discrete points) -> X_1 (n/2 points), i -> i // 2: n threads;
    the limit scales are 'same X_1 image' then the diagonal, so depth 2 and
    Hausdorff; the bonding is onto, so strong Mittag-Leffler holds."""
    return {"threads": n, "limit_depth": 2, "limit_hausdorff": True,
            "strong_ml": True}, EXIT_OK


# -- report fields -----------------------------------------------------------

def verdict(command, report):
    """The verdict fields of a report, in the shape of the known answers."""
    r = report["results"]
    if command == "analyze":
        return _analyze([(len(s["components"]), s["h1_rank"], s["h1_torsion"])
                         for s in r["per_scale"]], r["critical_scales"])
    if command == "cover":
        return _cover(r["num_vertices"], r["complete"], r["ucm"]["verdict"]) | {
            "identification_incomplete": r["identification_incomplete"]}
    if command == "action":
        return {"group_order": sum(len(c) for c in r["quotient"]["coset_table"]),
                "upd_scale": r["diagnosis"]["upd"]["scale"],
                "normal": r["quotient"]["normal"],
                "tower": r["tower"]["verdict"]}
    if command == "map":
        return {"gucm_passed": r["gucm_passed"]}
    if command == "quotient":
        return {"factorization": r["factorization"]["verdict"]}
    if command == "tower":
        return {"threads": len(r["threads"]), "limit_depth": r["limit_depth"],
                "limit_hausdorff": r["limit_hausdorff"],
                "strong_ml": r["strong_ml"]["passed"]}
    raise ValueError(f"no verdict fields for command {command!r}")
