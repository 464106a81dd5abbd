"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expected values are either computed by an oracle that is independent of the
code path under test (brute-force boundary matrices reduced with sympy,
move-based chain identification, bounded pair search) or verified by direct
enumeration in the fixture's geometry.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from scalecover import formats
from scalecover.actions import (
    action_tower_verify,
    close_group,
    diagnose_action,
    quotient_at_scale,
)
from scalecover.cli import main
from scalecover.covers import bonding_h1_map, build_cover, critical_scales, verify_endpoint_ucm
from scalecover.quotients import (
    FilteredMap,
    check_approx_uniqueness,
    factor_and_verify,
    check_chain_lifting,
    check_generates,
)
from scalecover.rips import AbelianGroupInv, h1_at_scale
from scalecover.spaces import FilteredSpace, from_metric
from scalecover.towers import TowerAb, lim1_verdict, quotient_tower_reconstruct, telescoping_solve
from scalecover import intlinalg as ila
from conftest import oracle_h1, ordered_pair

Z = AbelianGroupInv(1, ())


@contextmanager
def criterion(num, name, limit_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds the {limit_s}s budget"


def c6_matrix():
    return [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]


# ---------------------------------------------------------------------------
# oracle helpers


def move_identification_classes(space, k, basepoint, max_len=8):
    """Union-find over single-point deletion moves on chains from basepoint.

    Insertions are inverses of deletions, so components of the deletion graph
    on chains of length <= max_len are the move-identification classes within
    that horizon.
    """
    chains = [(basepoint,)]
    frontier = [(basepoint,)]
    for _ in range(max_len - 1):
        nxt = []
        for c in frontier:
            last = c[-1]
            for y in (last,) + space.neighbors(k, last):
                nxt.append(c + (y,))
        chains.extend(nxt)
        frontier = nxt
    parent = {c: c for c in chains}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for c in chains:
        n = len(c)
        if n >= 2 and c[0] == c[1]:
            union(c, c[1:])
        if n >= 2 and c[-1] == c[-2]:
            union(c, c[:-1])
        for i in range(1, n - 1):
            if space.related(k, c[i - 1], c[i + 1]):
                union(c, c[:i] + c[i + 1:])
    classes = {}
    for c in chains:
        classes.setdefault(find(c), []).append(c)
    return [sorted(v, key=lambda s: (len(s), s)) for v in classes.values()]


def bounded_pair_search(f, e, j, strong, max_len=6):
    """All chain pairs of length <= max_len, by breadth-first pair states."""
    close_scale = j if strong else e
    seen = {(p, p) for p in f.source.points}
    if any(not f.source.related(close_scale, a, b) for a, b in seen):
        return False
    frontier = list(seen)
    for _ in range(max_len - 1):
        nxt = []
        for a, b in frontier:
            for a2 in (a,) + f.source.neighbors(j, a):
                for b2 in (b,) + f.source.neighbors(j, b):
                    if f(a2) != f(b2) or (a2, b2) in seen:
                        continue
                    if not f.source.related(close_scale, a2, b2):
                        return False
                    seen.add((a2, b2))
                    nxt.append((a2, b2))
        frontier = nxt
    return True


# ---------------------------------------------------------------------------
# random instance generators (fixed seeds)


def random_space(rng, max_points=4, max_depth=3, hausdorff=False):
    n = rng.randint(2, max_points)
    points = tuple(range(n))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    depth = rng.randint(1, max_depth - (1 if hausdorff else 0))
    current = {p for p in possible if rng.random() < 0.6}
    scales = [frozenset(current)]
    for _ in range(depth - 1):
        current = {p for p in current if rng.random() < 0.6}
        scales.append(frozenset(current))
    if hausdorff:
        scales.append(frozenset())
    return FilteredSpace(points, tuple(scales), hausdorff=not scales[-1])


def relabel_map(rng, hausdorff=False):
    sp = random_space(rng, hausdorff=hausdorff)
    perm = list(sp.points)
    rng.shuffle(perm)
    relabeled = {p: q for p, q in zip(sp.points, perm)}
    scales = tuple(
        frozenset(ordered_pair(sp, relabeled[a], relabeled[b]) for a, b in pairs)
        for pairs in sp.scales
    )
    target = FilteredSpace(sp.points, scales, hausdorff=sp.hausdorff)
    return FilteredMap(sp, target, tuple(perm))


def double_cover_map(rng, hausdorff=False):
    base = random_space(rng, max_points=4, hausdorff=hausdorff)
    points = tuple((p, s) for s in (0, 1) for p in base.points)
    scales = tuple(
        frozenset(
            pair
            for a, b in pairs
            for s in (0, 1)
            for pair in [(((a, s), (b, s)) if points.index((a, s)) < points.index((b, s))
                          else ((b, s), (a, s)))]
        )
        for pairs in base.scales
    )
    total = FilteredSpace(points, scales, hausdorff=base.hausdorff)
    return FilteredMap(total, base, tuple(ps[0] for ps in points))


def cyclic_cover_map(rng, hausdorff=False):
    n = rng.choice([3, 4])
    d2n = [[min(abs(i - j), 2 * n - abs(i - j)) for j in range(2 * n)] for i in range(2 * n)]
    dn = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    radii = (1, 0.5) if hausdorff else (1,)
    source = from_metric(d2n, radii)
    target = from_metric(dn, radii)
    return FilteredMap(source, target, tuple(i % n for i in source.points))


def raw_random_map(rng, hausdorff=False):
    source = random_space(rng, hausdorff=hausdorff)
    target = random_space(rng, hausdorff=hausdorff)
    assignment = tuple(rng.choice(target.points) for _ in source.points)
    return FilteredMap(source, target, assignment)


def generate_passing_maps(count, seed, hausdorff=False, condition=None):
    rng = random.Random(seed)
    families = [relabel_map, double_cover_map, cyclic_cover_map, raw_random_map]
    found = []
    attempts = 0
    while len(found) < count and attempts < 40 * count:
        attempts += 1
        f = families[attempts % len(families)](rng, hausdorff=hausdorff)
        if len(f.source.points) > 8 or f.source.depth > 3:
            continue
        if condition(f):
            found.append(f)
    assert len(found) == count, f"only {len(found)} passing maps after {attempts} attempts"
    return found


def factorization_preconditions(f):
    return (
        check_generates(f).passed
        and check_chain_lifting(f).passed
        and check_approx_uniqueness(f, strong=True).passed
    )


# ---------------------------------------------------------------------------
# criteria


@pytest.fixture(scope="module")
def criterion3_maps():
    return generate_passing_maps(200, seed=20260809,
                                 condition=factorization_preconditions)


def test_criterion_1_hexagon_invariants(fix_c6):
    with criterion(1, "hexagon-invariants", 1.0):
        # oracle: explicitly listed edge and triangle data for both skeletons
        hex_edges = [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
        oct_edges = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3),
                     (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        oct_triangles = [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 4, 5),
                         (1, 2, 3), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
        assert oracle_h1(hex_edges, [], 6) == (1, ())
        assert oracle_h1(oct_edges, oct_triangles, 6) == (0, ())

        assert h1_at_scale(fix_c6, 2) == AbelianGroupInv(1, ())
        assert h1_at_scale(fix_c6, 1) == AbelianGroupInv(0, ())
        bonding = bonding_h1_map(fix_c6, 2, 1)
        assert bonding.source == Z and bonding.target == AbelianGroupInv(0, ())
        assert bonding.matrix == ()  # the zero map out of Z
        assert critical_scales(fix_c6) == [(1, 2)]


def test_criterion_2_cover_correctness(fix_c6):
    with criterion(2, "cover-correctness", 5.0):
        # oracle: move-based identification of chains of length <= 8; classes
        # whose shortest member sits well below the horizon are exact (merging
        # two short chains never needs an intermediate beyond the cap)
        fine_classes = move_identification_classes(fix_c6, 2, 0, max_len=8)
        for r in range(1, 7):
            cover = build_cover(fix_c6, 2, 0, r)
            assert cover.num_vertices == 2 * r + 1
            reps = {cls[0] for cls in fine_classes if len(cls[0]) <= r + 1}
            assert len(reps) == 2 * r + 1
            assert set(map(tuple, cover.reps)) == reps

        coarse_classes = move_identification_classes(fix_c6, 1, 0, max_len=8)
        trusted = [cls for cls in coarse_classes if len(cls[0]) <= 4]
        assert len(trusted) == 6
        cover = build_cover(fix_c6, 1, 0, 2)
        assert cover.complete
        assert cover.num_vertices == len(trusted)
        assert set(map(tuple, cover.reps)) == {cls[0] for cls in trusted}
        report = verify_endpoint_ucm(cover)
        assert report.verdict == "UCM"


def test_criterion_3_factorization(criterion3_maps):
    with criterion(3, "factorization-prop", 60.0):
        assert len(criterion3_maps) == 200
        discrepancies = []
        for idx, f in enumerate(criterion3_maps):
            report = factor_and_verify(f)
            if report.verdict != "UCM" or not report.fibers_bounded:
                discrepancies.append((idx, report.verdict))
        assert discrepancies == []


def test_criterion_4_uniqueness_vs_bruteforce(criterion3_maps, constant_map):
    with criterion(4, "uniqueness-fixpoint-vs-bruteforce", 60.0):
        disagreements = []
        for idx, f in enumerate(list(criterion3_maps) + [constant_map]):
            for strong in (False, True):
                ours = check_approx_uniqueness(f, strong=strong)
                brute_per_scale = []
                for e in range(1, f.source.depth + 1):
                    brute_per_scale.append(any(
                        bounded_pair_search(f, e, j, strong)
                        for j in range(e, f.source.depth + 1)
                    ))
                if ours.passed != all(brute_per_scale):
                    disagreements.append((idx, strong))
                for e, brute in enumerate(brute_per_scale, start=1):
                    if (ours.witnesses[e - 1] is not None) != brute:
                        disagreements.append((idx, strong, e))
        assert disagreements == []


def test_criterion_5_telescoping_and_lim1():
    with criterion(5, "telescoping-lim1", 10.0):
        doubling = TowerAb((Z,) * 3, ([[2]], [[2]]), stabilization="pattern_repeats")
        forward = telescoping_solve(doubling, ((1,), (0,)), "forward")
        assert not forward.solved and forward.failed_step == 1
        backward = telescoping_solve(doubling, ((1,), (0,)), "backward")
        assert backward.solved and backward.verified
        assert backward.h == ((1,), (0,), (0,))
        assert not lim1_verdict(doubling).trivial

        rng = random.Random(5)
        for _ in range(100):
            length = rng.randint(2, 4)
            dims = [rng.randint(1, 3) for _ in range(length)]
            for i in range(length - 2, -1, -1):
                dims[i] = min(dims[i], dims[i + 1])  # surjectivity needs rows <= cols
            groups = tuple(AbelianGroupInv(d, ()) for d in dims)
            matrices = []
            for i in range(length - 1):
                rows, cols = dims[i], dims[i + 1]
                raw = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
                u, _, v = ila.smith_normal_form(raw)
                d_surj = [[1 if r == c else 0 for c in range(cols)] for r in range(rows)]
                adjusted = ila.matmul(
                    ila.matmul(ila.unimodular_inverse(u), d_surj),
                    ila.unimodular_inverse(v),
                )
                # independent confirmation that the adjusted matrix is onto
                s = sympy_snf(sympy.Matrix(adjusted), domain=sympy.ZZ)
                facts = [abs(s[i, i]) for i in range(min(s.shape)) if s[i, i] != 0]
                assert len(facts) == rows and all(d == 1 for d in facts)
                matrices.append(adjusted)
            tower = TowerAb(groups, tuple(matrices))
            verdict = lim1_verdict(tower)
            assert verdict.trivial and verdict.certificate == "surjectivity"


def test_criterion_6_reconstruction(fix_map):
    with criterion(6, "reconstruction-theorem", 60.0):
        first = quotient_tower_reconstruct(fix_map)
        assert first.passed, first

        def hypotheses(f):
            from scalecover.quotients import verify_gucm

            return (
                f.source.hausdorff
                and verify_gucm(f).passed
                and check_approx_uniqueness(f, strong=True).passed
            )

        maps = generate_passing_maps(50, seed=977, hausdorff=True,
                                     condition=hypotheses)
        failures = []
        for idx, f in enumerate(maps):
            report = quotient_tower_reconstruct(f)
            if not report.passed:
                failures.append((idx, report.verdict))
        assert failures == []


def test_criterion_7_group_actions(fix_c6, fix_map):
    with criterion(7, "group-action-suite", 1.0):
        antipode = [3, 4, 5, 0, 1, 2]
        action = close_group(fix_c6, [antipode])
        # oracle: exhaustive displacement enumeration, 2 elements x 6 points
        for x in range(6):
            assert min(abs(x - antipode[x]), 6 - abs(x - antipode[x])) == 3
        diag = diagnose_action(action)
        assert diag.upd["scale"] == 2  # the radius-1 scale
        assert diag.upd["qualifying_scales"] == (1, 2)
        assert all(entry["holds"] for entry in diag.neutral["pair_table"].values())

        wide = from_metric(c6_matrix(), (3, 1, 0.5))
        action_h = close_group(wide, [antipode])
        q = quotient_at_scale(action_h, 1)
        relabel = {block: min(block) % 3 for block in q.space.points}
        assert sorted(relabel.values()) == [0, 1, 2]
        pushed = {
            tuple(sorted((relabel[a], relabel[b]))) for a, b in q.space.scale_pairs(1)
        }
        target_pairs = {
            tuple(sorted(p)) for p in fix_map.target.scale_pairs(1)
        }
        assert pushed == target_pairs

        report = action_tower_verify(action_h)
        assert report.passed
        assert all(report.part_a.values())
        assert all(report.part_b.values())
        assert all(report.part_c.values())
        assert report.part_d["all_surjective"]


def test_criterion_8_determinism(tmp_path, capsys, fix_map):
    with criterion(8, "determinism", 30.0):
        csv = tmp_path / "c6.csv"
        csv.write_text(
            "\n".join(
                ",".join(str(min(abs(i - j), 6 - abs(i - j))) for j in range(6))
                for i in range(6)
            )
            + "\n"
        )
        mapfile = tmp_path / "map.json"
        mapfile.write_text(formats.canonical_dumps(formats.map_to_spec(fix_map)))
        actionfile = tmp_path / "action.json"
        actionfile.write_text(formats.canonical_dumps({
            "kind": "action",
            "space": formats.space_to_spec(from_metric(
                [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)],
                (2, 1),
            )),
            "generators": [[3, 4, 5, 0, 1, 2]],
        }))
        towerfile = tmp_path / "tower.json"
        towerfile.write_text(formats.canonical_dumps({
            "kind": "abelian_tower",
            "groups": [{"rank": 1, "torsion": []}] * 3,
            "matrices": [[[2]], [[2]]],
            "stabilization": "pattern_repeats",
            "g": [[1], [0]],
        }))
        report_out = tmp_path / "map-report.json"
        main(["map", str(mapfile), "--out", str(report_out)])
        capsys.readouterr()
        commands = [
            ["analyze", str(csv), "--radii", "2,1"],
            ["cover", str(csv), "--radii", "2,1", "--scale", "1",
             "--basepoint", "0", "--radius", "6"],
            ["cover", str(csv), "--radii", "2,1", "--scale", "2",
             "--basepoint", "0", "--radius", "4"],
            ["map", str(mapfile)],
            ["quotient", str(mapfile), "--scale", "1"],
            ["tower", str(towerfile), "--lim1", "--telescope", "backward"],
            ["action", str(actionfile), "--quotient-scale", "2", "--tower"],
            ["verify", "--replay", str(report_out)],
        ]
        for argv in commands:
            first_code = main(list(argv))
            first = capsys.readouterr().out
            second_code = main(list(argv))
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second, f"report drift for {argv}"
            json.loads(first)  # reports stay valid JSON
