import gc
import weakref

from conftest import identity_map
from scalecover.actions import close_group, quotient_at_scale
from scalecover.spaces import from_metric, validate_space
from scalecover.quotients import (
    FilteredMap,
    build_fiber_quotient,
    check_approx_uniqueness,
    check_chain_lifting,
    check_generates,
    factor_and_verify,
    fiber_e_components,
    verify_gucm,
)


def brute_force_uniqueness(f, e, j, strong, max_len=6):
    """Oracle: breadth-first over chain pairs of length <= max_len.

    A pair of equal-image scale-j chains from a common start violates the
    property when some index is not close; the first violation along any
    such pair sits at the end of a prefix, so scanning all reachable pair
    states up to depth max_len - 1 is exhaustive for that length bound.
    """
    close_scale = j if strong else e
    seen = {(p, p) for p in f.source.points}
    frontier = list(seen)
    if any(not f.source.related(close_scale, a, b) for a, b in seen):
        return False
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


class TestGenerates:
    def test_fix_map_generates(self, fix_map):
        res = check_generates(fix_map)
        assert res.passed
        assert res.continuity == (1,)
        assert res.image_cofinal == (1,)

    def test_identity_generates(self, fix_c6):
        assert check_generates(identity_map(fix_c6)).passed

    def test_constant_map_generates(self, constant_map):
        assert check_generates(constant_map).passed

    def test_non_surjective_fails(self, fix_c6):
        two = from_metric([[0, 1], [1, 0]], (1,))
        inc = FilteredMap(two, fix_c6, (0, 1))
        res = check_generates(inc)
        assert not res.passed
        assert res.counterexample["kind"] == "image_not_entourage"


class TestChainLifting:
    def test_fix_map_lifts_with_coarsest_witness(self, fix_map):
        res = check_chain_lifting(fix_map)
        assert res.passed
        assert res.witnesses == (1,)

    def test_constant_map_lifts(self, constant_map):
        assert check_chain_lifting(constant_map).passed

    def test_antipodal_inclusion_fails(self, fix_c6):
        allpairs = from_metric([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)]
                                for i in range(6)], (3,))
        two = validate_space([0, 3], [[(0, 0), (3, 3)]], hausdorff=True)
        inc = FilteredMap(two, allpairs, (0, 3))
        res = check_chain_lifting(inc)
        assert not res.passed
        x, y = res.counterexample["from_point"], res.counterexample["step_to"]
        assert x in (0, 3) and y not in (0, 3)


class TestApproxUniqueness:
    def test_fix_map_strong_with_f_equals_e(self, fix_map):
        res = check_approx_uniqueness(fix_map, strong=True)
        assert res.passed
        assert res.witnesses == (1,)

    def test_constant_map_strong_fails(self, constant_map):
        res = check_approx_uniqueness(constant_map, strong=True)
        assert not res.passed
        left, right = res.counterexample["chains"]
        # replay: both are chains with identical images that end apart
        sp = constant_map.source
        from scalecover.spaces import is_chain

        j = res.counterexample["finer_scale"]
        assert is_chain(sp, j, left) and is_chain(sp, j, right)
        assert left[0] == right[0]
        assert not sp.related(j, left[-1], right[-1])

    def test_identity_passes_both_modes(self, fix_c6):
        for strong in (False, True):
            assert check_approx_uniqueness(identity_map(fix_c6), strong=strong).passed

    def test_strong_implies_plain(self, fix_map, constant_map, fix_c6):
        for f in (fix_map, constant_map, identity_map(fix_c6)):
            strong = check_approx_uniqueness(f, strong=True)
            plain = check_approx_uniqueness(f, strong=False)
            if strong.passed:
                assert plain.passed

    def test_agrees_with_bruteforce_on_fixtures(self, fix_map, constant_map):
        for f in (fix_map, constant_map):
            for strong in (False, True):
                for e in range(1, f.source.depth + 1):
                    for j in range(e, f.source.depth + 1):
                        from scalecover.quotients import _uniqueness_condition

                        ours = _uniqueness_condition(f, j, j if strong else e) is None
                        brute = brute_force_uniqueness(f, e, j, strong)
                        assert ours == brute


class TestFiberQuotient:
    def test_fix_map_fibers_split_to_singletons(self, fix_map):
        part = fiber_e_components(fix_map, 1)
        assert part.blocks == ((0,), (1,), (2,), (3,), (4,), (5,))

    def test_constant_map_single_block(self, fix_c6, constant_map):
        part = fiber_e_components(constant_map, 1)
        assert part.blocks == ((0, 1, 2, 3, 4, 5),)

    def test_identity_all_singletons(self, fix_c6):
        part = fiber_e_components(identity_map(fix_c6), 2)
        assert all(len(b) == 1 for b in part.blocks)

    def test_fix_map_quotient_is_source(self, fix_map):
        quot = build_fiber_quotient(fix_map, 1)
        assert quot.hypothesis_met
        assert quot.singleton_property
        assert len(quot.space.points) == 6
        assert quot.g.assignment == tuple(fix_map(b[0]) for b in quot.space.points)
        assert tuple(quot.g(quot.q(x)) for x in fix_map.source.points) == fix_map.assignment

    def test_constant_map_flagged(self, constant_map):
        quot = build_fiber_quotient(constant_map, 1)
        assert not quot.hypothesis_met
        assert len(quot.space.points) == 1

    def test_identity_quotient_is_source(self, fix_c6):
        quot = build_fiber_quotient(identity_map(fix_c6), 2)
        assert quot.hypothesis_met
        assert len(quot.space.points) == 6


class TestFactorAndVerify:
    def test_fix_map(self, fix_map):
        rep = factor_and_verify(fix_map)
        assert rep.chosen_scale == 1
        assert rep.verdict == "UCM"
        assert rep.fibers_bounded

    def test_identity(self, fix_c6):
        rep = factor_and_verify(identity_map(fix_c6))
        assert rep.verdict == "UCM"

    def test_constant_map_preconditions_fail(self, constant_map):
        rep = factor_and_verify(constant_map)
        assert rep.verdict == "preconditions_failed"
        assert not rep.preconditions["strong_approx_uniqueness"]
        assert rep.preconditions["generates"]


class TestGucm:
    def test_fix_map_is_gucm(self, fix_map):
        assert verify_gucm(fix_map).passed

    def test_constant_map_fails_uniqueness(self, constant_map):
        rep = verify_gucm(constant_map)
        assert not rep.passed
        assert rep.generates.passed
        assert rep.chain_lifting.passed
        assert not rep.approx_uniqueness.passed

    def test_identity_passes(self, fix_c6):
        assert verify_gucm(identity_map(fix_c6)).passed


def test_memoized_facts_die_with_their_maps_and_actions():
    """Facts memoized on a map or an action are freed with it.

    Ten wrap maps C_2n -> C_n and a rotation action are verified, factored
    and quotiented, then dropped.  A map's memoized fiber quotient refers
    back to the map through ``QuotientSpace.base``, a reference cycle, so
    only the cyclic collector frees those maps: every weak reference must be
    dead after ``gc.collect()``, and none may be kept alive by a global cache.
    """
    def cycle(n, radii):
        return from_metric(
            [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)], radii)

    maps = [FilteredMap(cycle(2 * n, (2, 1)), cycle(n, (2, 1)),
                        tuple(i % n for i in range(2 * n))) for n in range(6, 16)]
    action = close_group(cycle(8, (2, 1, 0)), [[(i + 2) % 8 for i in range(8)]])
    factored = sum(factor_and_verify(f).quotient is not None for f in maps)
    gucm = sum(verify_gucm(f).passed for f in maps)
    quotient_at_scale(action, 2)
    assert factored and gucm
    refs = [weakref.ref(x) for f in maps for x in (f, f.source, f.target)]
    refs += [weakref.ref(action), weakref.ref(action.space)]
    del maps, action
    gc.collect()
    assert [r() for r in refs if r() is not None] == []
