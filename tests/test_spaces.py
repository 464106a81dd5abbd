import pytest
from hypothesis import given, settings, strategies as st

from scalecover.spaces import (
    HausdorffViolated,
    NonDecreasingRadii,
    NonReflexive,
    NonSymmetric,
    NotNested,
    BadScale,
    UnknownPoint,
    chain,
    chain_components,
    from_metric,
    is_chain,
    subspace,
    validate_space,
)


def all_pairs(points):
    return [(a, b) for a in points for b in points]


def diagonal(points):
    return [(a, a) for a in points]


class TestValidateSpace:
    def test_diagonal_case(self):
        pts = ["a", "b", "c"]
        sp = validate_space(pts, [all_pairs(pts), diagonal(pts)], hausdorff=True)
        assert sp.depth == 2
        assert sp.hausdorff
        assert sp.related(1, "a", "c")
        assert not sp.related(2, "a", "c")
        assert sp.related(2, "b", "b")

    def test_order_violated(self):
        pts = [0, 1]
        with pytest.raises(NotNested) as exc:
            validate_space(pts, [diagonal(pts), all_pairs(pts)])
        assert exc.value.scale == 1

    def test_symmetry_violated(self):
        pts = [0, 1]
        with pytest.raises(NonSymmetric):
            validate_space(pts, [diagonal(pts) + [(0, 1)]])

    def test_reflexivity_required(self):
        with pytest.raises(NonReflexive):
            validate_space([0, 1], [[(0, 0), (0, 1), (1, 0)]])

    def test_hausdorff_flag_checked(self):
        pts = [0, 1]
        with pytest.raises(HausdorffViolated):
            validate_space(pts, [all_pairs(pts)], hausdorff=True)

    def test_unknown_point_in_pairs(self):
        with pytest.raises(UnknownPoint):
            validate_space([0], [[(0, 0), (0, 7), (7, 0), (7, 7)]])


class TestFromMetric:
    def test_hexagon(self, fix_c6):
        assert fix_c6.depth == 2
        assert not fix_c6.hausdorff
        assert fix_c6.related(1, 0, 2)
        assert not fix_c6.related(1, 0, 3)
        assert fix_c6.related(2, 0, 1)
        assert not fix_c6.related(2, 0, 2)

    def test_line(self, fix_l4):
        assert fix_l4.hausdorff
        assert fix_l4.scale_pairs(1) == frozenset({(0, 1), (1, 2), (2, 3)})
        assert fix_l4.scale_pairs(2) == frozenset()

    def test_radii_must_decrease(self):
        with pytest.raises(NonDecreasingRadii):
            from_metric([[0, 1], [1, 0]], (1, 2))

    def test_asymmetric_matrix(self):
        from scalecover.spaces import AsymmetricMatrix

        with pytest.raises(AsymmetricMatrix):
            from_metric([[0, 1], [2, 0]], (1,))

    def test_zero_radius_gives_diagonal(self):
        sp = from_metric([[0, 1], [1, 0]], (1, 0))
        assert sp.hausdorff
        assert sp.scale_pairs(2) == frozenset()


class TestChains:
    def test_is_chain_examples(self, fix_c6):
        assert is_chain(fix_c6, 2, (0, 1, 2))
        assert not is_chain(fix_c6, 2, (0, 2))
        assert is_chain(fix_c6, 1, (0, 2, 4))

    def test_is_chain_errors(self, fix_c6):
        with pytest.raises(UnknownPoint):
            is_chain(fix_c6, 1, (0, 99))
        with pytest.raises(BadScale):
            is_chain(fix_c6, 3, (0, 1))

    def test_components(self, fix_c6, fix_l4):
        assert len(chain_components(fix_c6, 2)) == 1
        assert len(chain_components(fix_c6, 1)) == 1
        assert chain_components(fix_l4, 2).blocks == ((0,), (1,), (2,), (3,))

    def test_subspace(self, fix_c6):
        sub = subspace(fix_c6, {0, 3})
        assert sub.points == (0, 3)
        assert sub.scale_pairs(1) == frozenset()
        assert sub.hausdorff


@st.composite
def nested_space(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    points = tuple(range(n))
    depth = draw(st.integers(min_value=1, max_value=3))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    current = set(draw(st.sets(st.sampled_from(possible)))) if possible else set()
    scales = [frozenset(current)]
    for _ in range(depth - 1):
        current = {p for p in current if draw(st.booleans())}
        scales.append(frozenset(current))
    from scalecover.spaces import FilteredSpace

    return FilteredSpace(points, tuple(scales), hausdorff=not scales[-1])


@st.composite
def space_and_chain(draw):
    sp = draw(nested_space())
    k = draw(st.integers(min_value=1, max_value=sp.depth))
    start = draw(st.sampled_from(sorted(sp.points)))
    seq = [start]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        options = (seq[-1],) + sp.neighbors(k, seq[-1])
        seq.append(draw(st.sampled_from(sorted(options))))
    return sp, k, tuple(seq)


@settings(max_examples=150, deadline=None)
@given(space_and_chain())
def test_chain_properties(data):
    sp, k, seq = data
    assert is_chain(sp, k, seq)
    assert chain(sp, k, seq).seq == seq
    # filtration monotonicity: a chain at a fine scale is one at every coarser scale
    for j in range(1, k + 1):
        assert is_chain(sp, j, seq)


@settings(max_examples=100, deadline=None)
@given(nested_space())
def test_component_refinement(sp):
    for k in range(1, sp.depth):
        coarse = chain_components(sp, k)
        fine = chain_components(sp, k + 1)
        for block in fine.blocks:
            targets = {coarse.block_of(p) for p in block}
            assert len(targets) == 1
