import re
from collections import Counter

import pytest

from scalecover.covers import (
    BadScalePair,
    BudgetExhausted,
    bonding_h1_map,
    build_cover,
    cover_to_dot,
    critical_scales,
    is_isomorphism,
    lift_chain,
    verify_endpoint_ucm,
)
from scalecover.quotients import FilteredMap, verify_gucm
from scalecover.rips import (
    AbelianGroupInv,
    chain_word,
    decide_e_homotopic,
    presentation_at_scale,
    reduce_chain,
)
from scalecover.spaces import (
    Chain,
    FilteredSpace,
    ScaleMismatch,
    SpaceError,
    from_metric,
    subspace,
)
from test_properties import fhat


def cover_space(cover):
    """The discovered vertices with the induced basis, as a filtered space."""
    scales = tuple(fhat(cover, j) for j in range(cover.scale, cover.space.depth + 1))
    return FilteredSpace(tuple(range(cover.num_vertices)), scales, hausdorff=not scales[-1])


def cover_target_space(cover):
    """The basepoint's component carrying the scales from the cover's on."""
    sub = subspace(cover.space, cover.presentation.component)
    scales = sub.scales[cover.scale - 1:]
    return FilteredSpace(sub.points, scales, hausdorff=not scales[-1])


class TestBuildCover:
    def test_line_cover_over_hexagon(self, fix_c6):
        for r in range(1, 7):
            cover = build_cover(fix_c6, 2, 0, r)
            assert cover.num_vertices == 2 * r + 1
            assert not cover.complete
            assert not cover.identification_incomplete

    def test_coarse_scale_completes(self, fix_c6):
        cover = build_cover(fix_c6, 1, 0, 6)
        assert cover.num_vertices == 6
        assert cover.complete
        assert sorted(cover.endpoints) == [0, 1, 2, 3, 4, 5]

    def test_line_space(self, fix_l4):
        cover = build_cover(fix_l4, 1, 0, 3)
        assert cover.num_vertices == 4
        assert cover.complete

    def test_determinism(self, fix_c6):
        a = build_cover(fix_c6, 2, 0, 4)
        b = build_cover(fix_c6, 2, 0, 4)
        assert a.reps == b.reps and a.edges == b.edges


# two 4-cycles sharing point 0: no triangles at scale 1, so pi1 is free of
# rank 2 and the cover of point 0 is a tree
FIGURE_EIGHT_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6))
FIGURE_EIGHT = FilteredSpace(tuple(range(7)), (frozenset(FIGURE_EIGHT_EDGES),))


def non_backtracking_walks(edges, start, radius):
    """The number of walks from start of length at most radius that never
    step straight back along the edge they came by."""
    nbrs = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    total, ends = 1, Counter({(None, start): 1})  # (previous, current) -> walks
    for _ in range(radius):
        steps = Counter()
        for (prev, cur), n in ends.items():
            for y in nbrs[cur]:
                if y != prev:
                    steps[cur, y] += n
        ends = steps
        total += sum(ends.values())
    return total


def test_walk_counts():
    assert [non_backtracking_walks(FIGURE_EIGHT_EDGES, 0, r) for r in (6, 8, 10, 12, 14)] == [
        41, 65, 137, 209, 425]


@pytest.mark.parametrize("radius", range(15))
def test_figure_eight_cover_is_the_walk_tree(radius):
    """Round r creates the lifts at distance r, and the tree never closes."""
    cover = build_cover(FIGURE_EIGHT, 1, 0, radius)
    assert cover.num_vertices == non_backtracking_walks(FIGURE_EIGHT_EDGES, 0, radius)
    assert not cover.complete
    assert cover.frontier_radius == radius


@pytest.mark.parametrize("radius", [0, 3])
def test_isolated_basepoint_cover_is_complete(radius):
    space = FilteredSpace((0, 1, 2), (frozenset({(1, 2)}),))
    cover = build_cover(space, 1, 0, radius)
    assert (cover.num_vertices, cover.complete, cover.frontier_radius) == (1, True, 0)


def _chain_check_calls(fix_c6):
    """Each function that takes a chain, called on a given chain at scale 2."""
    cover = build_cover(fix_c6, 2, 0, 2)
    return {
        "chain_word": lambda c: chain_word(presentation_at_scale(fix_c6, 2, 0), c),
        "reduce_chain": lambda c: reduce_chain(fix_c6, 2, c),
        "decide_e_homotopic": lambda c: decide_e_homotopic(fix_c6, 2, c, (0, 1, 2)),
        "lift_chain": lambda c: lift_chain(cover, 0, c),
    }


@pytest.mark.parametrize("name,bad,error", [
    ("chain_word", Chain(1, (0, 1, 2)), ScaleMismatch),
    ("chain_word", (0, 2), SpaceError),
    ("reduce_chain", Chain(1, (0, 1, 2)), ScaleMismatch),
    ("reduce_chain", (0, 2), SpaceError),
    ("decide_e_homotopic", Chain(1, (0, 1, 2)), ScaleMismatch),
    ("decide_e_homotopic", (0, 2), SpaceError),
    ("lift_chain", Chain(1, (0, 1, 2)), BadScalePair),
    ("lift_chain", (0, 2), SpaceError),
])
def test_chain_checks_raise_as_before(fix_c6, name, bad, error):
    """A Chain at a coarser scale than asked, and a sequence that is not a
    scale-2 chain, raise exactly these types; the good chain passes."""
    call = _chain_check_calls(fix_c6)[name]
    with pytest.raises(SpaceError) as raised:
        call(bad)
    assert type(raised.value) is error
    call(Chain(2, (0, 1, 2)))


class TestEndpointMap:
    def test_examples(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 3)
        pmap = dict(enumerate(cover.endpoints))
        assert pmap[0] == 0  # basepoint vertex is the constant chain
        reps = {cover.reps[v]: v for v in range(cover.num_vertices)}
        assert (0, 1, 2) in reps
        assert pmap[reps[(0, 1, 2)]] == 2

    def test_wraparound_vertices_share_point(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 6)
        pmap = dict(enumerate(cover.endpoints))
        # 13 vertices over 6 points: two distinct classes land on the basepoint
        over_zero = [v for v in pmap if pmap[v] == 0]
        assert len(over_zero) == 3  # classes 0, +6, -6
        fibers = {}
        for v, p in pmap.items():
            fibers.setdefault(p, []).append(v)
        assert sorted(len(f) for f in fibers.values()) == [2, 2, 2, 2, 2, 3]

    def test_complete_cover_has_constant_fibers(self, fix_c6):
        cover = build_cover(fix_c6, 1, 0, 6)
        fibers = {}
        for v, p in enumerate(cover.endpoints):
            fibers.setdefault(p, []).append(v)
        assert {len(f) for f in fibers.values()} == {1}


class TestUcm:
    def test_coarse_cover_is_ucm(self, fix_c6):
        cover = build_cover(fix_c6, 1, 0, 6)
        report = verify_endpoint_ucm(cover)
        assert report.verdict == "UCM"
        assert report.generates and report.chain_lifting
        assert report.transverse_scale == 1
        assert report.lifting_witnesses == (1, 2)

    def test_line_space_ucm(self, fix_l4):
        cover = build_cover(fix_l4, 1, 0, 4)
        assert verify_endpoint_ucm(cover).verdict == "UCM"

    def test_incomplete_is_inconclusive(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 2)
        report = verify_endpoint_ucm(cover)
        assert report.verdict == "Inconclusive"
        assert "radius" in report.reason

    def test_endpoint_map_is_gucm(self, fix_c6, fix_l4):
        # cross-module consistency: a complete cover's endpoint map passes
        # the generalized covering checks as a filtered map
        for sp, k in ((fix_c6, 1), (fix_l4, 1)):
            cover = build_cover(sp, k, sp.points[0], 8)
            assert cover.complete
            f = FilteredMap(cover_space(cover), cover_target_space(cover),
                            tuple(cover.endpoints))
            assert verify_gucm(f).passed


class TestBonding:
    def test_hexagon_zero_map(self, fix_c6):
        b = bonding_h1_map(fix_c6, 2, 1)
        assert b.source == AbelianGroupInv(1, ())
        assert b.target == AbelianGroupInv(0, ())
        assert b.matrix == ()
        assert not is_isomorphism(b)

    def test_identity_on_equal_scales(self, fix_c6):
        b = bonding_h1_map(fix_c6, 2, 2)
        assert b.matrix == ((1,),) or b.matrix == ((-1,),)
        assert is_isomorphism(b)

    def test_line_trivial(self, fix_l4):
        b = bonding_h1_map(fix_l4, 2, 1)
        assert b.source == b.target == AbelianGroupInv(0, ())
        assert is_isomorphism(b)

    def test_functoriality(self):
        # three scales on a hexagon: radii (3, 2, 1)
        d = [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]
        sp = from_metric(d, (3, 2, 1))
        self._check_functorial(sp)

    @staticmethod
    def _check_functorial(sp):
        b31 = bonding_h1_map(sp, 3, 1)
        b32 = bonding_h1_map(sp, 3, 2)
        b21 = bonding_h1_map(sp, 2, 1)
        target = b21.target
        rows = len(b21.matrix)
        cols = len(b32.matrix[0]) if b32.matrix else 0
        mids = len(b32.matrix)
        comp = [
            [
                sum(b21.matrix[r][m] * b32.matrix[m][c] for m in range(mids))
                for c in range(cols)
            ]
            for r in range(rows)
        ]
        for r, dmod in enumerate(target.torsion):
            comp[r] = [v % dmod for v in comp[r]]
        assert tuple(map(tuple, comp)) == b31.matrix

    def test_functoriality_on_random_three_scale_spaces(self):
        import random

        from scalecover.spaces import FilteredSpace

        rng = random.Random(424)
        for _ in range(25):
            n = rng.randint(3, 7)
            possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
            coarse = {p for p in possible if rng.random() < 0.7}
            mid = {p for p in coarse if rng.random() < 0.7}
            fine = {p for p in mid if rng.random() < 0.7}
            sp = FilteredSpace(
                tuple(range(n)),
                (frozenset(coarse), frozenset(mid), frozenset(fine)),
                hausdorff=not fine,
            )
            self._check_functorial(sp)

    def test_critical_scales(self, fix_c6, fix_l4, one_point_space):
        assert critical_scales(fix_c6) == [(1, 2)]
        assert critical_scales(fix_l4) == []
        assert critical_scales(one_point_space) == []

    def test_bad_scale_pair(self, fix_c6):
        with pytest.raises(BadScalePair):
            bonding_h1_map(fix_c6, 1, 2)


class TestLift:
    def test_full_loop_translates(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 6)
        loop = (0, 1, 2, 3, 4, 5, 0)
        lift = lift_chain(cover, 0, loop)
        assert lift[0] == 0 and lift[-1] != 0
        assert cover.endpoints[lift[-1]] == 0
        # lift fidelity: projecting the lift recovers the chain
        assert tuple(cover.endpoints[v] for v in lift) == loop

    def test_constant_chain(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 2)
        assert lift_chain(cover, 0, (0, 0, 0)) == [0, 0, 0]

    def test_simply_connected_loop_closes(self, fix_c6):
        cover = build_cover(fix_c6, 1, 0, 6)
        lift = lift_chain(cover, 0, Chain(1, (0, 1, 2, 3, 4, 5, 0)))
        assert lift[-1] == 0

    def test_budget_exhausted(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 1)
        with pytest.raises(BudgetExhausted):
            lift_chain(cover, 0, (0, 1, 2))

    def test_uniqueness_of_lifts(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 6)
        loop = (0, 1, 2, 1, 0, 5, 0)
        assert lift_chain(cover, 0, loop) == lift_chain(cover, 0, loop)


@pytest.fixture(scope="module")
def rp2_cover(rp2_space):
    cover = build_cover(rp2_space, 1, rp2_space.points[0], 16)
    assert cover.complete and not cover.identification_incomplete
    return cover


class TestDoubleCoverOfProjectivePlane:
    """The loop classes of the subdivided projective plane form a group of
    order two, so the complete cover is a 2-sheeted sphere-like graph."""

    def test_two_sheets(self, rp2_space, rp2_cover):
        assert rp2_cover.num_vertices == 2 * len(rp2_space.points)

    def test_constant_fiber_cardinality(self, rp2_cover):
        fibers = {}
        for v, p in enumerate(rp2_cover.endpoints):
            fibers.setdefault(p, []).append(v)
        assert {len(f) for f in fibers.values()} == {2}

    def test_ucm_verdict(self, rp2_space, rp2_cover):
        report = verify_endpoint_ucm(rp2_cover)
        assert report.verdict == "UCM"

    def test_endpoint_map_reconstructs(self, rp2_cover):
        # the endpoint map of the 2-sheeted cover rebuilds from its fiber
        # quotient tower with a bijective comparison map
        from scalecover.towers import quotient_tower_reconstruct

        rep = quotient_tower_reconstruct(FilteredMap(
            cover_space(rp2_cover), cover_target_space(rp2_cover),
            tuple(rp2_cover.endpoints)))
        assert rep.passed
        assert rep.stage_sizes == (62,)

    def test_essential_loop_lifts_open(self, rp2_space, rp2_cover):
        from scalecover.rips import h1_class

        # 1-2-3 is not a face of the base complex, so its subdivided loop is
        # the orientation-reversing class
        loop = (("v", 1), ("e", 1, 2), ("v", 2), ("e", 2, 3), ("v", 3),
                ("e", 1, 3), ("v", 1))
        assert h1_class(rp2_space, 1, loop) == (1,)
        lift = lift_chain(rp2_cover, 0, loop)
        assert lift[0] == 0 and lift[-1] != 0
        assert rp2_cover.endpoints[lift[-1]] == ("v", 1)
        # traversing it twice closes up
        double = lift_chain(rp2_cover, 0, loop + loop[1:])
        assert double[-1] == 0


class TestExports:
    def test_cover_space_structure(self, fix_c6):
        cover = build_cover(fix_c6, 1, 0, 6)
        sp = cover_space(cover)
        assert sp.depth == 2
        assert len(sp.points) == 6

    def test_dot_output(self, fix_c6):
        cover = build_cover(fix_c6, 2, 0, 2)
        dot = cover_to_dot(cover)
        assert dot.startswith("digraph cover {")
        assert 'label="0,1,2"' in dot
        assert cover_to_dot(cover) == dot

    def test_dot_labels_are_quoted_strings(self):
        """Every label of a cover of points named with quotes and
        backslashes is one well-formed DOT quoted string, which unescapes to
        the vertex's representative or the edge's point."""
        names = ['a"b', "c\\d", "e", '"', "\\", "f,g"]
        space = from_metric([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)]
                             for i in range(6)], (2, 1), names)
        cover = build_cover(space, 2, 'a"b', 3)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        node = re.compile(rf'  v(\d+) \[label={quoted}( shape="doublecircle")?\];')
        edge = re.compile(rf'  v(\d+) -> v(\d+) \[label={quoted}\];')
        lines = cover_to_dot(cover).splitlines()
        assert lines[0] == "digraph cover {" and lines[-1] == "}"
        nodes, edges = [], []
        for line in lines[1:-1]:
            if found := node.fullmatch(line):
                vid, label, shape = found.groups()
                nodes.append((int(vid), re.sub(r"\\(.)", r"\1", label), shape is not None))
            else:
                found = edge.fullmatch(line)
                assert found, line
                vid, target, label = found.groups()
                edges.append((int(vid), int(target), re.sub(r"\\(.)", r"\1", label)))
        assert nodes == [(vid, ",".join(cover.reps[vid]), vid == 0)
                         for vid in range(cover.num_vertices)]
        assert edges == [(vid, target, y) for vid in range(cover.num_vertices)
                         for y, target in cover.edges[vid].items() if target is not None]
