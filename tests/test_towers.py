import pytest

from conftest import identity_map, telescoping_backward_group
from scalecover import cli
from scalecover.quotients import FilteredMap
from scalecover.rips import AbelianGroupInv
from scalecover.spaces import FilteredSpace
from scalecover.towers import (
    DEFAULT_PRODUCT_BOUND,
    InvalidTower,
    ProductTooLarge,
    SpaceTower,
    TowerAb,
    assemble_limit_space,
    lim1_verdict,
    quotient_tower_reconstruct,
    strong_ml_check,
    telescoping_solve,
)

Z = AbelianGroupInv(1, ())
Z2 = AbelianGroupInv(0, (2,))


def constant_tower(space, n=3):
    return SpaceTower((space,) * n, tuple(identity_map(space) for _ in range(n - 1)))


class TestLimitSpace:
    def test_constant_tower_identity_law(self, fix_c6):
        limit = assemble_limit_space(constant_tower(fix_c6))
        sp = limit.space
        assert len(sp.points) == 6
        assert sp.depth == fix_c6.depth
        embed = {x: (x, x, x) for x in fix_c6.points}
        for k in range(1, fix_c6.depth + 1):
            expected = {
                (embed[a], embed[b]) for a, b in fix_c6.scale_pairs(k)
            }
            got = set(sp.scale_pairs(k))
            assert {tuple(sorted(p)) for p in got} == {tuple(sorted(p)) for p in expected}

    def test_projections_commute_with_bondings(self, fix_c6):
        tower = constant_tower(fix_c6)
        limit = assemble_limit_space(tower)
        # a thread projects to stage i + 1 as its coordinate i
        for i in range(tower.length - 1):
            for t in limit.space.points:
                assert tower.bondings[i](t[i + 1]) == t[i]

    def test_graph_of_map(self, fix_map):
        tower = SpaceTower((fix_map.target, fix_map.source), (fix_map,))
        limit = assemble_limit_space(tower)
        assert len(limit.space.points) == 6
        assert set(limit.space.points) == {(x % 3, x) for x in range(6)}

    def test_empty_top_gives_empty_limit(self, fix_c6):
        empty = FilteredSpace((), (frozenset(), frozenset()), hausdorff=True)
        tower = SpaceTower((fix_c6, empty), (FilteredMap(empty, fix_c6, ()),))
        limit = assemble_limit_space(tower)
        assert limit.space.points == ()

    def test_product_guard(self, fix_c6):
        with pytest.raises(ProductTooLarge):
            assemble_limit_space(constant_tower(fix_c6), product_bound=5)


    def test_limit_space_builds_no_index(self, fix_c6, monkeypatch):
        """A tower command reads its limit space's points, depth and flag but
        no relation, so the limit space indexes none of its scales."""
        built = []

        def assemble(*args):
            built.append(assemble_limit_space(*args))
            return built[-1]

        monkeypatch.setattr(cli, "assemble_limit_space", assemble)
        budgets = {"product_bound": DEFAULT_PRODUCT_BOUND}
        results, code = cli.run_space_tower(constant_tower(fix_c6), {}, budgets)
        (limit,) = built
        assert code == 0 and results["limit_depth"] == 2
        assert limit.space.scales[0]
        assert limit.space._closed == {} == limit.space._adjacency


class TestStrongMl:
    def test_identity_tower_passes(self, fix_c6):
        report = strong_ml_check(constant_tower(fix_c6))
        assert report.passed
        assert all(e["witness"] == e["index"] for e in report.entries)

    def test_single_space_tower(self, fix_l4):
        report = strong_ml_check(SpaceTower((fix_l4,), ()))
        assert report.passed

    def test_middle_index_needs_deeper_witness(self):
        a = FilteredSpace(("a",), (frozenset(),), hausdorff=True)
        ab = FilteredSpace(("a", "b"), (frozenset(),), hausdorff=True)
        tower = SpaceTower(
            (a, ab, a),
            (FilteredMap(ab, a, ("a", "a")), FilteredMap(a, ab, ("a",))),
        )
        report = strong_ml_check(tower)
        assert report.passed
        assert report.entries[1]["witness"] == 3  # the identity stage is too big

    def test_surjective_bondings_pass_everywhere(self, fix_map):
        src = fix_map.source
        rot = FilteredMap(src, src, tuple((x + 1) % 6 for x in src.points))
        tower = SpaceTower((src, src, src), (rot, rot))
        assert strong_ml_check(tower).passed


class TestReconstruction:
    def test_fix_map(self, fix_map):
        rep = quotient_tower_reconstruct(fix_map)
        assert rep.passed
        assert rep.basis == (1,)
        assert rep.stage_sizes == (6,)
        assert rep.injective and rep.surjective and rep.embedding

    def test_identity_on_line(self, fix_l4):
        rep = quotient_tower_reconstruct(identity_map(fix_l4))
        assert rep.passed
        assert rep.hypotheses["source_hausdorff"]
        assert rep.basis == (1, 2)

    def test_constant_map_hypothesis_unmet(self, constant_map):
        rep = quotient_tower_reconstruct(constant_map)
        assert rep.verdict.startswith("HypothesisUnmet")
        assert "strong_approx_uniqueness" in rep.verdict


class TestTelescoping:
    def test_identity_tower_forward(self):
        tab = TowerAb((Z,) * 4, ([[1]], [[1]], [[1]]))
        res = telescoping_solve(tab, ((1,), (1,), (1,)), "forward")
        assert res.solved and res.verified
        assert res.h == ((0,), (-1,), (-2,), (-3,))

    def test_doubling_tower_forward_unsolvable(self):
        tab = TowerAb((Z,) * 3, ([[2]], [[2]]))
        res = telescoping_solve(tab, ((1,), (0,)), "forward")
        assert not res.solved
        assert res.failed_step == 1

    def test_doubling_tower_backward(self):
        tab = TowerAb((Z,) * 3, ([[2]], [[2]]))
        res = telescoping_solve(tab, ((1,), (0,)), "backward")
        assert res.solved and res.verified
        assert res.h == ((1,), (0,), (0,))

    def test_backward_always_succeeds_with_torsion(self):
        tab = TowerAb((Z2, AbelianGroupInv(1, (2,)), Z), ([[1, 0]], [[1], [3]]))
        gs = ((1,), (1, 2), )
        res = telescoping_solve(tab, gs, "backward")
        assert res.solved and res.verified

    def test_group_level_backward(self):
        # permutation stages: two copies of S_2 as tuples, identity bonding
        identity = (0, 1)
        swap = (1, 0)

        def mul(stage, a, b):
            return tuple(a[b[i]] for i in range(len(a)))

        h = telescoping_backward_group(
            [lambda g: g], [swap], [identity, identity], mul
        )
        # verify g_i = psi(h_{i+1})^{-1} h_i
        inv = {identity: identity, swap: swap}
        assert mul(0, inv[h[1]], h[0]) == swap


class TestLim1:
    def test_identity_tower_surjectivity(self):
        tab = TowerAb((Z,) * 3, ([[1]], [[1]]))
        verdict = lim1_verdict(tab)
        assert verdict.trivial and verdict.certificate == "surjectivity"

    def test_doubling_tower_undetermined(self):
        for stab in ("none", "pattern_repeats"):
            tab = TowerAb((Z,) * 3, ([[2]], [[2]]), stabilization=stab)
            verdict = lim1_verdict(tab)
            assert not verdict.trivial

    def test_bijective_beyond_is_ml(self):
        tab = TowerAb((Z, Z), ([[2]],), stabilization="bijective_beyond")
        verdict = lim1_verdict(tab)
        assert verdict.trivial and verdict.certificate == "mittag_leffler"

    def test_projection_then_doubling(self):
        tab = TowerAb((Z2, Z, Z), ([[1]], [[2]]), stabilization="pattern_repeats")
        verdict = lim1_verdict(tab)
        assert not verdict.trivial
        assert verdict.detail["first_unstable_index"] == 3

    def test_eventually_stable_pattern(self):
        # projection Z -> Z (zero map) stabilizes at the zero lattice
        tab = TowerAb((Z, Z), ([[0]],), stabilization="pattern_repeats")
        verdict = lim1_verdict(tab)
        assert verdict.trivial and verdict.certificate == "mittag_leffler"

    def test_torsion_validation(self):
        with pytest.raises(InvalidTower):
            TowerAb((Z, Z2), ([[1]],))  # torsion lands in a free row

    def test_ragged_matrix_is_invalid(self):
        # the first row has the right length, the second has none
        with pytest.raises(InvalidTower, match="ragged"):
            TowerAb((AbelianGroupInv(2, ()), Z), ([[1], []],))
