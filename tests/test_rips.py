import itertools

import pytest

from conftest import oracle_h1
from scalecover.spaces import validate_space
from scalecover.rips import (
    AbelianGroupInv,
    NotALoop,
    chain_word,
    decide_e_homotopic,
    free_reduce,
    h1_at_scale,
    h1_class,
    invert_word,
    presentation_at_scale,
    presentation_h1,
    reduce_chain,
    rips_2_skeleton,
)


def c6_dist(i, j):
    return min(abs(i - j), 6 - abs(i - j))


class TestSkeleton:
    def test_hexagon_fine_scale(self, fix_c6):
        skel = rips_2_skeleton(fix_c6, 2)
        assert len(skel.edges) == 6
        assert skel.triangles == ()

    def test_hexagon_coarse_scale_is_octahedron(self, fix_c6):
        # oracle: enumerate all pairs/triples by distance
        edges = {(i, j) for i, j in itertools.combinations(range(6), 2) if c6_dist(i, j) <= 2}
        tris = {
            t
            for t in itertools.combinations(range(6), 3)
            if all(c6_dist(a, b) <= 2 for a, b in itertools.combinations(t, 2))
        }
        skel = rips_2_skeleton(fix_c6, 1)
        assert set(skel.edges) == edges and len(skel.edges) == 12
        assert set(skel.triangles) == tris and len(skel.triangles) == 8

    def test_line(self, fix_l4):
        skel = rips_2_skeleton(fix_l4, 1)
        assert len(skel.edges) == 3
        assert skel.triangles == ()


class TestPresentation:
    def test_hexagon_fine_scale_infinite_cyclic(self, fix_c6):
        pres = presentation_at_scale(fix_c6, 2, 0)
        assert len(pres.generators) == 1
        assert pres.relators == ()

    def test_hexagon_coarse_scale(self, fix_c6):
        pres = presentation_at_scale(fix_c6, 1, 0)
        assert len(pres.generators) == 7
        assert len(pres.relators) == 8
        # simplifies to the trivial group: every loop is nulhomotopic
        full = (0, 1, 2, 3, 4, 5, 0)
        assert decide_e_homotopic(fix_c6, 1, full, (0,)).is_yes
        # coset enumeration on the raw presentation confirms order 1
        from scalecover.coset import coset_enumeration

        table = coset_enumeration(len(pres.generators), pres.relators)
        assert table.order == 1

    def test_line_is_tree(self, fix_l4):
        pres = presentation_at_scale(fix_l4, 1, 0)
        assert pres.generators == ()


class TestChainWord:
    def test_full_loop_is_generator(self, fix_c6):
        pres = presentation_at_scale(fix_c6, 2, 0)
        word = chain_word(pres, (0, 1, 2, 3, 4, 5, 0))
        assert len(word) == 1 and abs(word[0]) == 1

    def test_constant_chain_empty(self, fix_c6):
        pres = presentation_at_scale(fix_c6, 2, 0)
        assert chain_word(pres, (0,)) == ()

    def test_backtrack_reduces(self, fix_c6):
        pres = presentation_at_scale(fix_c6, 2, 0)
        assert chain_word(pres, (0, 1, 0)) == ()


class TestH1:
    def test_hexagon_scales(self, fix_c6):
        assert h1_at_scale(fix_c6, 2) == AbelianGroupInv(1, ())
        assert h1_at_scale(fix_c6, 1) == AbelianGroupInv(0, ())

    def test_line_trivial(self, fix_l4):
        assert h1_at_scale(fix_l4, 1) == AbelianGroupInv(0, ())

    def test_presentation_h1_matches_boundary_h1(self, fix_c6, fix_l4):
        # oracle: sympy reduction of the boundary matrices listed from the pairs
        for sp in (fix_c6, fix_l4):
            for k in (1, 2):
                pairs = sp.scales[k - 1]
                edges = sorted(pairs)
                triangles = [
                    t for t in itertools.combinations(sp.points, 3)
                    if all(e in pairs for e in itertools.combinations(t, 2))
                ]
                expected = AbelianGroupInv(*oracle_h1(edges, triangles, len(sp.points)))
                pres = presentation_at_scale(sp, k, sp.points[0])
                assert presentation_h1(pres) == expected

    def test_h1_class_examples(self, fix_c6):
        full = (0, 1, 2, 3, 4, 5, 0)
        v = h1_class(fix_c6, 2, full)
        assert v in ((1,), (-1,))
        assert h1_class(fix_c6, 2, (0, 1, 0)) == (0,)
        twice = full + full[1:]
        assert h1_class(fix_c6, 2, twice) in ((2,), (-2,))

    def test_h1_class_requires_loop(self, fix_c6):
        with pytest.raises(NotALoop):
            h1_class(fix_c6, 2, (0, 1))

    def test_whole_space_vs_component_variant(self):
        # two disjoint hexagons: rank 2 overall, rank 1 per component
        d = [[0] * 12 for _ in range(12)]
        for i in range(12):
            for j in range(12):
                if (i < 6) == (j < 6):
                    a, b = i % 6, j % 6
                    d[i][j] = min(abs(a - b), 6 - abs(a - b))
                else:
                    d[i][j] = 10
        sp = validate_space(
            list(range(12)),
            [[(i, j) for i in range(12) for j in range(12) if d[i][j] <= 1]],
        )
        assert h1_at_scale(sp, 1) == AbelianGroupInv(2, ())
        assert h1_at_scale(sp, 1, basepoint=0) == AbelianGroupInv(1, ())
        assert h1_at_scale(sp, 1, basepoint=7) == AbelianGroupInv(1, ())

    def test_h1_class_is_homomorphism(self, fix_c6):
        a = (0, 1, 2, 3, 4, 5, 0)
        b = (0, 1, 0)
        ab = a + b[1:]
        va, vb, vab = (h1_class(fix_c6, 2, s) for s in (a, b, ab))
        assert tuple(x + y for x, y in zip(va, vb)) == vab


def test_projective_plane_torsion(rp2_space):
    sp = rp2_space
    skel = rips_2_skeleton(sp, 1)
    assert len(skel.edges) == 90
    assert len(skel.triangles) == 60
    assert h1_at_scale(sp, 1) == AbelianGroupInv(0, (2,))
    pres = presentation_at_scale(sp, 1, sp.points[0])
    assert presentation_h1(pres) == AbelianGroupInv(0, (2,))


class TestDecide:
    def test_h1_separates_on_hexagon(self, fix_c6):
        res = decide_e_homotopic(fix_c6, 2, (0, 1, 2), (0, 5, 4, 3, 2))
        assert res.verdict == "no"
        assert res.witness["reduced_word"] or res.witness  # certified witness attached

    def test_simply_connected_coarse_scale(self, fix_c6):
        res = decide_e_homotopic(fix_c6, 1, (0, 1, 2, 3, 4, 5, 0), (0,))
        assert res.is_yes

    def test_reflexive(self, fix_c6):
        for k, seq in ((1, (0, 2, 4)), (2, (0, 1, 2))):
            assert decide_e_homotopic(fix_c6, k, seq, seq).is_yes

    def test_symmetric_and_consistent_with_h1(self, fix_c6):
        c, d = (0, 1, 2), (0, 5, 4, 3, 2)
        assert decide_e_homotopic(fix_c6, 2, c, d).verdict == \
            decide_e_homotopic(fix_c6, 2, d, c).verdict

    def test_free_scale_decides_by_words(self, fix_c6):
        # no triangles at scale 2: homotopic iff reduced words coincide
        pres = presentation_at_scale(fix_c6, 2, 0)
        chains = [(0, 1, 2), (0, 1, 2, 1, 2), (0, 5, 4, 3, 2), (0, 1, 0, 1, 2)]
        for c in chains:
            for d in chains:
                res = decide_e_homotopic(fix_c6, 2, c, d)
                words_equal = chain_word(pres, c) == chain_word(pres, d)
                assert res.is_yes == words_equal
                assert not res.is_unknown

    def test_endpoint_mismatch(self, fix_c6):
        from scalecover.spaces import EndpointMismatch

        with pytest.raises(EndpointMismatch):
            decide_e_homotopic(fix_c6, 2, (0, 1), (0, 5))


class TestReduce:
    def test_triangle_removal(self, fix_c6):
        assert reduce_chain(fix_c6, 1, (0, 1, 2)).seq == (0, 2)

    def test_no_removable_point(self, fix_c6):
        assert reduce_chain(fix_c6, 2, (0, 1, 2)).seq == (0, 1, 2)

    def test_backtrack(self, fix_c6):
        assert reduce_chain(fix_c6, 2, (0, 1, 0)).seq == (0,)
        assert reduce_chain(fix_c6, 1, (0, 1, 0)).seq == (0,)

    def test_preserves_class_of_loops(self, fix_c6):
        loops = [(0, 1, 2, 3, 4, 5, 0), (0, 1, 0, 5, 0), (0, 2, 4, 0), (0, 1, 2, 1, 0)]
        for k in (1, 2):
            for loop in loops:
                from scalecover.spaces import is_chain

                if not is_chain(fix_c6, k, loop):
                    continue
                red = reduce_chain(fix_c6, k, loop)
                assert len(red.seq) <= len(loop)
                assert decide_e_homotopic(fix_c6, k, loop, red.seq).is_yes
                assert h1_class(fix_c6, k, loop) == h1_class(
                    fix_c6, k, red.seq if red.seq[0] == red.seq[-1] else loop
                )

    def test_word_of_reduced_equals_class(self, fix_c6):
        # at a scale with no triangles the word itself is invariant
        pres = presentation_at_scale(fix_c6, 2, 0)
        loop = (0, 1, 0, 5, 4, 5, 0)
        red = reduce_chain(fix_c6, 2, loop)
        assert chain_word(pres, loop) == chain_word(pres, red.seq)


def test_free_reduce_involution_roundtrip():
    w = (1, 2, -2, 3, -3, -1, 1)
    assert free_reduce(w) == (1,)
    assert free_reduce(w + invert_word(w)) == ()


def test_unknown_is_honest_on_hard_words(fix_l4):
    # Klein-bottle-style presentation: the commutator is abelianization-trivial
    # and beyond the rewriting rules, and the group is infinite, so the coset
    # budget runs out; the decision must be Unknown, never a guess.
    from scalecover.rips import GroupPresentation, _word_trivial

    pres = GroupPresentation(
        space=fix_l4, scale=1, basepoint=0, component=(0, 1, 2, 3),
        tree_edges=(), generators=((0, 1), (1, 2)), relators=((1, 1, 2, 2),),
    )
    decision = _word_trivial(pres, (1, 2, -1, -2), ident_budget=500)
    assert decision.is_unknown
    assert decision.witness == {"exhausted": "ident_budget", "budget": 500}
    # the relator itself is certified trivial by rewriting alone
    assert _word_trivial(pres, (1, 1, 2, 2), ident_budget=500).is_yes


def _long_relator(length, seed=0):
    """A cyclically reduced word over generators 1 to 3 in which every
    generator occurs many times, so word Tietze keeps it."""
    import random

    rng = random.Random(seed)
    word = [1]
    while len(word) < length or word[-1] == -word[0]:
        word.append(rng.choice([x for x in (1, -1, 2, -2, 3, -3) if x != -word[-1]]))
    return tuple(word)


def test_rewriting_rules_stay_linear_in_the_residual():
    """Rules come only from residual relators of at most
    _RULE_RELATOR_LETTERS letters, so their letters are linear in the
    residual's; every rotation and cut of a 200-letter relator would be
    cubically many.  The rotations of the long relator are trivial, and
    with fewer rules the word problem still answers Yes or Unknown, never
    No."""
    from scalecover import rips

    long = _long_relator(200)
    pres = rips.GroupPresentation(None, 1, None, (), (), (0, 1, 2), (long, (1, 2, -1, -2)))
    subst, residual = rips._simplified(pres)
    assert long in residual and all(w == (g,) for g, w in subst.items())
    rules = rips._rewriting_rules(pres)
    assert rules
    assert max(len(head) for head, _ in rules) <= rips._RULE_RELATOR_LETTERS
    assert sum(len(head) + len(rep) for head, rep in rules) <= \
        rips._RULE_RELATOR_LETTERS ** 2 * sum(map(len, residual))
    for i in range(len(long)):
        for word in (long[i:] + long[:i], invert_word(long[i:] + long[:i])):
            assert rips._residual_trivial(pres, word, 200).verdict in ("yes", "unknown")
