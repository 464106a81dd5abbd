import pytest

from conftest import identity_map
from scalecover.actions import (
    ActionTower,
    GroupTooLarge,
    InvalidActionTower,
    NotAPermutation,
    action_tower_verify,
    close_group,
    diagnose_action,
    limit_action_verify,
    quotient_at_scale,
    saturate_invariant,
    subgroup_at_scale,
)
from scalecover.quotients import FilteredMap
from scalecover.spaces import from_metric


def c6_matrix():
    return [[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)]


ANTIPODE = [3, 4, 5, 0, 1, 2]
ROTATION = [1, 2, 3, 4, 5, 0]


@pytest.fixture(scope="module")
def fix_ant(fix_c6):
    return close_group(fix_c6, [ANTIPODE])


@pytest.fixture(scope="module")
def c6_wide():
    """Hexagon with an all-pairs coarsest scale and a diagonal finest scale."""
    return from_metric(c6_matrix(), (3, 1, 0.5))


@pytest.fixture(scope="module")
def fix_ant_h(c6_wide):
    return close_group(c6_wide, [ANTIPODE])


class TestCloseGroup:
    def test_antipode(self, fix_ant):
        assert len(fix_ant.elements) == 2

    def test_rotation(self, fix_c6):
        action = close_group(fix_c6, [ROTATION])
        assert len(action.elements) == 6

    def test_trivial(self, fix_c6):
        action = close_group(fix_c6, [list(range(6))])
        assert len(action.elements) == 1

    def test_not_a_permutation(self, fix_c6):
        with pytest.raises(NotAPermutation):
            close_group(fix_c6, [[0, 0, 1, 2, 3, 4]])

    def test_group_too_large(self, fix_c6):
        with pytest.raises(GroupTooLarge):
            close_group(fix_c6, [ROTATION], bound=3)


class TestSubgroupAtScale:
    def test_antipode_trivial_at_fine_scales(self, fix_ant):
        assert len(subgroup_at_scale(fix_ant, 1).elements) == 1
        assert len(subgroup_at_scale(fix_ant, 2).elements) == 1

    def test_antipode_full_at_all_pairs(self, fix_ant_h):
        assert len(subgroup_at_scale(fix_ant_h, 1).elements) == 2
        assert len(subgroup_at_scale(fix_ant_h, 2).elements) == 1

    def test_rotation_full_at_adjacency(self, fix_c6):
        action = close_group(fix_c6, [ROTATION])
        assert len(subgroup_at_scale(action, 2).elements) == 6

    def test_antitone(self, fix_ant_h):
        sizes = [
            len(subgroup_at_scale(fix_ant_h, k).elements)
            for k in range(1, fix_ant_h.space.depth + 1)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestDiagnose:
    def test_antipode_on_hexagon(self, fix_ant):
        diag = diagnose_action(fix_ant)
        assert diag.upd["qualifying_scales"] == (1, 2)
        assert diag.upd["scale"] == 2  # the radius-1 scale is the finest qualifying
        assert all(
            entry["holds"] for entry in diag.neutral["pair_table"].values()
        )
        assert diag.has_ss_bounded_orbits()
        assert diag.is_equicontinuous()

    def test_rotation_fails_upd(self, fix_c6):
        action = close_group(fix_c6, [ROTATION])
        diag = diagnose_action(action)
        assert diag.upd["qualifying_scales"] == ()
        assert diag.upd["scale"] is None
        assert set(diag.upd["counterexamples"]) == {1, 2}

    def test_trivial_group_vacuous(self, fix_c6):
        action = close_group(fix_c6, [list(range(6))])
        diag = diagnose_action(action)
        assert diag.upd["scale"] == fix_c6.depth
        assert diag.all_neutral()
        assert diag.is_equicontinuous()

    def test_upd_iff_trivial_subgroup(self, fix_ant, fix_ant_h, fix_c6):
        for action in (fix_ant, fix_ant_h, close_group(fix_c6, [ROTATION])):
            diag = diagnose_action(action)
            for k in range(1, action.space.depth + 1):
                trivial = len(subgroup_at_scale(action, k).elements) == 1
                qualifies = k in diag.upd["qualifying_scales"]
                assert trivial == qualifies


class TestSaturate:
    def test_isometric_action_invariant(self, fix_ant):
        for k in (1, 2):
            assert saturate_invariant(fix_ant, k) == fix_ant.space.scale_pairs(k)

    def test_swap_on_line_adds_pairs(self, fix_l4):
        action = close_group(fix_l4, [[1, 0, 2, 3]])
        sat = saturate_invariant(action, 1)
        assert (0, 2) in sat
        assert sat > fix_l4.scale_pairs(1)

    def test_trivial_group_identity(self, fix_l4):
        action = close_group(fix_l4, [[0, 1, 2, 3]])
        assert saturate_invariant(action, 1) == fix_l4.scale_pairs(1)


class TestQuotientAtScale:
    def test_trivial_subgroup_quotient_is_original(self, fix_ant):
        q = quotient_at_scale(fix_ant, 2)
        assert len(q.space.points) == 6
        assert len(q.cosets) == 2
        assert q.upd_holds
        assert q.normal and q.induced_faithful and q.stabilizer_is_subgroup

    def test_rotation_at_all_pairs(self, c6_wide):
        action = close_group(c6_wide, [ROTATION])
        q = quotient_at_scale(action, 1)
        assert len(q.space.points) == 1
        assert len(q.cosets) == 1

    def test_antipode_quotient_reproduces_triangle(self, fix_ant_h, fix_map):
        q = quotient_at_scale(fix_ant_h, 1)
        assert len(q.space.points) == 3
        assert q.upd_holds
        relabel = {block: min(block) % 3 for block in q.space.points}
        assert sorted(relabel.values()) == [0, 1, 2]
        pushed = {
            (relabel[a], relabel[b]) for a, b in q.space.scale_pairs(1)
        }
        target = fix_map.target
        expected = {
            tuple(sorted(p)) for p in target.scale_pairs(1)
        }
        assert {tuple(sorted(p)) for p in pushed} == expected

    def test_projection_composes_to_orbit_map(self, fix_ant_h):
        q = quotient_at_scale(fix_ant_h, 1)
        for x in fix_ant_h.space.points:
            block = q.projection(x)
            assert x in block


class TestActionTower:
    def test_antipode_hausdorff_tower(self, fix_ant_h):
        report = action_tower_verify(fix_ant_h)
        assert report.passed, report
        assert [s["group_size"] for s in report.stages] == [1, 2, 2]
        assert [s["space_size"] for s in report.stages] == [3, 6, 6]
        assert report.part_d["all_surjective"]

    def test_trivial_group(self, fix_l4):
        action = close_group(fix_l4, [[0, 1, 2, 3]])
        report = action_tower_verify(action)
        assert report.passed

    def test_non_hausdorff_rejected(self, fix_ant):
        report = action_tower_verify(fix_ant)
        assert report.verdict.startswith("HypothesisUnmet")
        assert "hausdorff" in report.verdict

    def test_full_rotation_group(self, c6_wide):
        action = close_group(c6_wide, [ROTATION])
        report = action_tower_verify(action)
        assert report.passed, report
        assert [s["group_size"] for s in report.stages] == [1, 1, 6]
        assert [s["space_size"] for s in report.stages] == [1, 1, 6]

    def test_reflection_breaks_bounded_orbits(self, c6_wide):
        # the reflection fixes two points, so the subgroup at the diagonal
        # scale is nontrivial and orbits cannot shrink below every scale
        reflection = [0, 5, 4, 3, 2, 1]
        action = close_group(c6_wide, [ROTATION, reflection])
        assert len(action.elements) == 12
        report = action_tower_verify(action)
        assert report.verdict.startswith("HypothesisUnmet")
        assert "ss_bounded_orbits" in report.verdict


class TestLimitAction:
    def constant_tower(self, action, n=3):
        ident_group = {g: g for g in action.elements}
        return ActionTower(
            (action,) * n,
            tuple(identity_map(action.space) for _ in range(n - 1)),
            tuple(ident_group for _ in range(n - 1)),
        )

    def test_constant_antipode_tower(self, fix_ant):
        report = limit_action_verify(self.constant_tower(fix_ant))
        assert all(report.conclusions.values())
        assert not report.discrepancies
        # the (2, 1) hexagon is not hausdorff, so the covering-map implication's
        # hypotheses are recorded as unmet rather than asserted
        assert report.verdict.startswith("HypothesisUnmet")
        assert "each_hausdorff" in report.verdict

    def test_constant_hausdorff_tower_verified(self, fix_ant_h):
        report = limit_action_verify(self.constant_tower(fix_ant_h))
        assert report.verdict == "verified"
        assert all(report.conclusions.values())

    def test_trivial_towers_pass(self, fix_l4):
        action = close_group(fix_l4, [[0, 1, 2, 3]])
        report = limit_action_verify(self.constant_tower(action))
        assert report.verdict == "verified"


class TestActionTowerBondings:
    def test_bonding_respecting_only_the_first_generator_rejected(self):
        # Two commuting transpositions a, b onto Z/3, fixing the point every
        # fine point maps to: a -> e, b -> r, ab -> r.  psi(g a) = psi(g) psi(a)
        # for every g, but psi(b b) = e while psi(b) psi(b) = r^2.
        discrete = from_metric([[int(i != j) for j in range(4)] for i in range(4)], (0,))
        fine = close_group(discrete, [[1, 0, 2, 3], [0, 1, 3, 2]])
        coarse = close_group(discrete, [[0, 2, 3, 1]])
        a, b = fine.generators
        r = coarse.generators[0]
        e, e_coarse = fine.identity, coarse.identity
        ab = tuple(a[b[i]] for i in range(4))
        psi = {e: e_coarse, a: e_coarse, b: r, ab: r}
        phi = FilteredMap.build(discrete, discrete, {x: 0 for x in range(4)})
        with pytest.raises(InvalidActionTower, match="is not a homomorphism"):
            ActionTower((coarse, fine), (phi,), (psi,))
