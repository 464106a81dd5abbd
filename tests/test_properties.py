"""Cross-cutting invariants exercised on randomized and structured instances."""

import contextlib
import dataclasses
import itertools
import random
from unittest import mock

import networkx as nx
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import oracle_h1, rp2_subdivision_space
from scalecover import rips
from scalecover.covers import (
    bonding_h1_map,
    build_cover,
    critical_scales,
    verify_endpoint_ucm,
)
from scalecover import actions
from scalecover.actions import (
    action_tower_verify,
    close_group,
    diagnose_action,
    quotient_at_scale,
)
from scalecover.quotients import (
    FilteredMap,
    build_fiber_quotient,
    check_approx_uniqueness,
    check_chain_lifting,
    counterexample_holds,
)
from scalecover.rips import (
    AbelianGroupInv,
    decide_e_homotopic,
    h1_at_scale,
    h1_class,
    reduce_chain,
)
from scalecover.spaces import FilteredSpace, chain_components, is_chain
from scalecover.towers import ProductTooLarge, SpaceTower, assemble_limit_space


@st.composite
def connected_space(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    points = tuple(range(n))
    spanning = {(i, i + 1) for i in range(n - 1)}
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = set(draw(st.sets(st.sampled_from(possible), max_size=6)))
    coarse = frozenset(spanning | extra)
    fine = frozenset(p for p in coarse if draw(st.booleans()) or p in spanning)
    return FilteredSpace(points, (coarse, fine), hausdorff=False)


@st.composite
def filtered_space(draw):
    """Up to nine points and three nested scales, often disconnected.

    The finest scale strings the points, in a random order, into up to three
    runs, each closed into a cycle or left open; every coarser scale adds a
    few random pairs, which fill, split, join or create loops.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    depth = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=2))) \
        if n > 1 else []
    pairs = set()
    for i, j in zip([0] + cuts, cuts + [n]):
        run = order[i:j]
        steps = list(zip(run, run[1:]))
        if len(run) > 2 and draw(st.booleans()):
            steps.append((run[-1], run[0]))
        pairs.update((min(a, b), max(a, b)) for a, b in steps)
    point = st.integers(min_value=0, max_value=n - 1)
    scales = [frozenset(pairs)]
    for _ in range(depth - 1):
        extra = draw(st.lists(st.tuples(point, point), min_size=1, max_size=3))
        pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
        scales.insert(0, frozenset(pairs))
    return FilteredSpace(tuple(range(n)), tuple(scales), hausdorff=not scales[-1])


def _graph(sp, k):
    g = nx.Graph()
    g.add_nodes_from(sp.points)
    g.add_edges_from(sp.scales[k - 1])
    return g


def _triangles(sp, k, keep):
    pairs = sp.scales[k - 1]
    return [t for t in itertools.combinations(sorted(keep), 3)
            if all(e in pairs for e in itertools.combinations(t, 2))]


def _oracle_group(sp, k, keep):
    """Boundary-matrix H1 of the scale-k skeleton on the points kept."""
    index = {p: i for i, p in enumerate(sorted(keep))}
    edges = [(index[a], index[b]) for a, b in sorted(sp.scales[k - 1]) if a in index]
    tris = [tuple(index[p] for p in t) for t in _triangles(sp, k, keep)]
    return AbelianGroupInv(*oracle_h1(edges, tris, len(index)))


def _oracle_critical(sp):
    """Scale pairs (k, k+1) whose bonding map is not an isomorphism.

    The map is onto exactly when the fundamental cycles of a spanning forest
    of the finer scale, with the coarser triangle boundaries, generate the
    coarser cycle lattice: full rank and every invariant factor 1.
    """
    out = []
    for k in range(1, sp.depth):
        if _oracle_group(sp, k, sp.points) != _oracle_group(sp, k + 1, sp.points):
            out.append((k, k + 1))
            continue
        coarse = _graph(sp, k)
        eindex = {e: i for i, e in enumerate(sorted(sp.scales[k - 1]))}
        cycles_dim = len(eindex) - len(sp.points) + nx.number_connected_components(coarse)
        if not cycles_dim:
            continue
        cols = []
        for a, b, c in _triangles(sp, k, sp.points):
            col = [0] * len(eindex)
            col[eindex[(a, b)]] += 1
            col[eindex[(b, c)]] += 1
            col[eindex[(a, c)]] -= 1
            cols.append(col)
        forest = nx.minimum_spanning_tree(_graph(sp, k + 1))
        for a, b in sp.scales[k]:
            if forest.has_edge(a, b):
                continue
            col = [0] * len(eindex)
            loop = [a] + nx.shortest_path(forest, b, a)
            for u, v in zip(loop, loop[1:]):
                col[eindex[(min(u, v), max(u, v))]] += 1 if u < v else -1
            cols.append(col)
        factors = []
        if cols:
            s = sympy_snf(sympy.Matrix(cols).T, domain=sympy.ZZ)
            factors = [abs(s[i, i]) for i in range(min(s.shape)) if s[i, i] != 0]
        if len(factors) != cycles_dim or any(d != 1 for d in factors):
            out.append((k, k + 1))
    return out


@settings(max_examples=100, deadline=None)
@given(filtered_space())
def test_h1_matches_boundary_oracle(sp):
    for k in range(1, sp.depth + 1):
        assert h1_at_scale(sp, k) == _oracle_group(sp, k, sp.points)
        for component in nx.connected_components(_graph(sp, k)):
            expected = _oracle_group(sp, k, component)
            for x in component:
                assert h1_at_scale(sp, k, x) == expected


# a 4-cycle filled at scale 1 while a second 4-cycle closes: Z -> Z, zero map
SWAPPED_LOOPS = FilteredSpace(
    tuple(range(8)),
    (frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (5, 6), (6, 7), (4, 7)}),
     frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7)})),
)


@settings(max_examples=100, deadline=None)
@given(filtered_space())
@example(SWAPPED_LOOPS)
def test_critical_scales_match_lattice_oracle(sp):
    assert critical_scales(sp) == _oracle_critical(sp)


def _path_back(sp, k, source, target):
    """A scale-k path from source to target (both scales stay connected)."""
    parents = {source: None}
    frontier = [source]
    while frontier:
        nxt = []
        for p in frontier:
            for q in sp.neighbors(k, p):
                if q not in parents:
                    parents[q] = p
                    nxt.append(q)
        frontier = nxt
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    return tuple(path)


@st.composite
def space_with_loops(draw):
    sp = draw(connected_space())
    k = draw(st.integers(min_value=1, max_value=2))
    start = draw(st.sampled_from(sorted(sp.points)))
    loops = []
    for _ in range(2):
        seq = [start]
        for _ in range(draw(st.integers(min_value=2, max_value=5))):
            options = (seq[-1],) + sp.neighbors(k, seq[-1])
            seq.append(draw(st.sampled_from(sorted(options))))
        loops.append(tuple(seq) + _path_back(sp, k, start, seq[-1])[1:])
    return sp, k, loops[0], loops[1]


@st.composite
def loop_across_scales(draw):
    """A space, scales j >= k, and a scale-j loop that winds where it can."""
    sp = draw(filtered_space())
    k = draw(st.integers(min_value=1, max_value=sp.depth))
    j = draw(st.integers(min_value=k, max_value=sp.depth))
    start = draw(st.sampled_from(sp.points))
    seq = [start]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        # no immediate backtracking, so the walk winds around the loops it meets
        options = [q for q in sp.neighbors(j, seq[-1]) if seq[-2:-1] != [q]]
        if not options:
            break
        seq.append(draw(st.sampled_from(options)))
    return sp, j, k, tuple(seq) + _path_back(sp, j, start, seq[-1])[1:]


# a 4-cycle that a coarser vertex splits into two: Z -> Z^2
SPLIT_LOOP = FilteredSpace(
    tuple(range(6)),
    (frozenset({(1, 4), (1, 5), (3, 4), (3, 5), (0, 1), (0, 3)}),
     frozenset({(1, 4), (1, 5), (3, 4), (3, 5)})),
)


# a 4-cycle with a triangle on one edge: the Smith transform is not a permutation
TRIANGLE_ON_LOOP = FilteredSpace(
    tuple(range(5)), (frozenset({(0, 1), (0, 2), (1, 4), (2, 3), (2, 4), (3, 4)}),)
)

# a 4-cycle sharing an edge with a tetrahedron boundary: dependent relators
# leave a zero on the Smith diagonal
TETRAHEDRON_ON_LOOP = FilteredSpace(
    tuple(range(6)),
    (frozenset({(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5), (1, 2), (2, 3), (0, 3)}),),
)


@settings(max_examples=100, deadline=None)
@given(loop_across_scales())
@example((SPLIT_LOOP, 2, 1, (1, 4, 3, 5, 1)))
@example((TRIANGLE_ON_LOOP, 1, 1, (0, 1, 4, 2, 0)))
@example((TETRAHEDRON_ON_LOOP, 1, 1, (0, 1, 2, 3, 0)))
def test_bonding_map_carries_loop_classes(data):
    sp, j, k, loop = data
    b = bonding_h1_map(sp, j, k)
    source = h1_class(sp, j, loop)
    image = [sum(m * x for m, x in zip(row, source)) for row in b.matrix]
    for r, d in enumerate(b.target.torsion):
        image[r] %= d
    assert tuple(image) == h1_class(sp, k, loop)


def _skeleton(sp, k):
    """Point indices, and the scale-k edges and triangles as index tuples."""
    pairs = sp.scales[k - 1]
    index = {p: i for i, p in enumerate(sp.points)}
    edges = sorted((index[a], index[b]) for a, b in pairs)
    triangles = [tuple(index[p] for p in t) for t in itertools.combinations(sp.points, 3)
                 if all(e in pairs for e in itertools.combinations(t, 2))]
    return index, edges, triangles


def _factors(columns):
    if not any(any(col) for col in columns):
        return []
    s = sympy_snf(sympy.Matrix(columns).T, domain=sympy.ZZ)
    return sorted(abs(s[i, i]) for i in range(min(s.shape)) if s[i, i] != 0)


def _is_boundary_sum(sp, k, loop):
    """Whether the loop's signed edge vector z is an integer sum of triangle
    boundaries: L and L + Zz have the same invariant factors exactly then."""
    index, edges, triangles = _skeleton(sp, k)
    eindex = {e: i for i, e in enumerate(edges)}

    def chain(steps):
        col = [0] * len(edges)
        for u, v in steps:
            if u != v:
                col[eindex[(min(u, v), max(u, v))]] += 1 if u < v else -1
        return col

    boundaries = [chain([(a, b), (b, c), (c, a)]) for a, b, c in triangles]
    z = chain([(index[u], index[v]) for u, v in zip(loop, loop[1:])])
    return _factors(boundaries) == _factors(boundaries + [z])


@contextlib.contextmanager
def _tietze_cap(cap):
    """Run with the elimination cap patched, on fresh reduction caches."""
    caches = (rips._simplified, rips._rewriting_rules, rips._pres_abelian,
              rips._coset_table)
    with mock.patch.object(rips, "TIETZE_LETTER_CAP", cap):
        for cache in caches:
            cache.cache_clear()
        try:
            yield
        finally:
            for cache in caches:
                cache.cache_clear()


RP2 = rp2_subdivision_space()
RP2_LOOP = (("v", 1), ("e", 1, 2), ("v", 2), ("e", 2, 3), ("v", 3), ("e", 1, 3), ("v", 1))


# the 4x4 king-move torus: two generators survive, with commutator relators
KING_TORUS = FilteredSpace(tuple(range(16)), (frozenset(
    tuple(sorted((4 * i + j, (i + di) % 4 * 4 + (j + dj) % 4)))
    for i in range(4) for j in range(4) for di in (-1, 0, 1) for dj in (-1, 0, 1)
    if (di, dj) != (0, 0)),))


# RP2 beside a 4-cycle: the 4-cycle's generator survives in no relator
RP2_AND_SQUARE = FilteredSpace(
    RP2.points + ("a", "b", "c", "d"),
    (RP2.scales[0] | {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")},),
)


@settings(max_examples=100, deadline=None)
@given(loop_across_scales())
@example((RP2, 1, 1, RP2_LOOP))
@example((RP2, 1, 1, RP2_LOOP + RP2_LOOP[1:]))
@example((KING_TORUS, 1, 1, (0, 1, 2, 3, 0, 4, 8, 12, 0)))
@example((KING_TORUS, 1, 1, (0, 1, 2, 3, 0, 4, 8, 12, 0, 3, 2, 1, 0, 12, 8, 4, 0)))
@example((RP2_AND_SQUARE, 1, 1, ("a", "b", "c", "d", "a")))
@example((RP2_AND_SQUARE, 1, 1, RP2_LOOP))
def test_h1_class_zero_exactly_on_boundaries(data):
    """h1_class vanishes exactly on sums of triangle boundaries, and groups and
    bonding maps agree with the oracles, with elimination on and capped at 0."""
    sp, j, k, loop = data
    expected = {}
    for scale in {j, k}:
        index, edges, triangles = _skeleton(sp, scale)
        group = AbelianGroupInv(*oracle_h1(edges, triangles, len(index)))
        expected[scale] = group, _is_boundary_sum(sp, scale, loop)
    # the default cap reduces to a small residual; cap 0 factors the full one
    for cap in (rips.TIETZE_LETTER_CAP, 0):
        with _tietze_cap(cap):
            for scale, (group, bounds) in expected.items():
                assert h1_at_scale(sp, scale) == group
                assert (not any(h1_class(sp, scale, loop))) == bounds
            b = bonding_h1_map(sp, j, k)
            image = [sum(m * x for m, x in zip(row, h1_class(sp, j, loop)))
                     for row in b.matrix]
            for r, d in enumerate(b.target.torsion):
                image[r] %= d
            assert tuple(image) == h1_class(sp, k, loop)


@settings(max_examples=80, deadline=None)
@given(space_with_loops())
def test_h1_class_homomorphism_random(data):
    sp, k, a, b = data
    ab = a + b[1:]
    va, vb, vab = (h1_class(sp, k, s) for s in (a, b, ab))
    assert tuple(x + y for x, y in zip(va, vb)) == vab


@settings(max_examples=60, deadline=None)
@given(space_with_loops())
def test_decide_never_contradicts_h1(data):
    sp, k, a, b = data
    res = decide_e_homotopic(sp, k, a, b)
    if res.is_yes:
        assert h1_class(sp, k, a) == h1_class(sp, k, b)
    if h1_class(sp, k, a) != h1_class(sp, k, b):
        assert res.is_no


@settings(max_examples=60, deadline=None)
@given(space_with_loops())
def test_reduce_preserves_class_random(data):
    sp, k, a, _ = data
    red = reduce_chain(sp, k, a)
    assert len(red.seq) <= len(a)
    assert is_chain(sp, k, red.seq)
    decision = decide_e_homotopic(sp, k, a, red.seq)
    assert not decision.is_no


def test_decide_yes_is_transitive(fix_c6):
    loops = [
        (0, 1, 2, 3, 4, 5, 0),
        (0, 1, 2, 1, 2, 3, 4, 5, 0),
        (0, 5, 0, 1, 2, 3, 4, 5, 0),
        (0, 1, 0),
        (0,),
        (0, 2, 4, 0),
    ]
    for k in (1, 2):
        valid = [s for s in loops if is_chain(fix_c6, k, s)]
        for a in valid:
            for b in valid:
                for c in valid:
                    ab = decide_e_homotopic(fix_c6, k, a, b)
                    bc = decide_e_homotopic(fix_c6, k, b, c)
                    if ab.is_yes and bc.is_yes:
                        assert decide_e_homotopic(fix_c6, k, a, c).is_yes


def test_rp2_torsion_class_addition(rp2_space):
    essential = (("v", 1), ("e", 1, 2), ("v", 2), ("e", 2, 3), ("v", 3),
                 ("e", 1, 3), ("v", 1))
    assert h1_class(rp2_space, 1, essential) == (1,)
    doubled = essential + essential[1:]
    assert h1_class(rp2_space, 1, doubled) == (0,)
    assert decide_e_homotopic(rp2_space, 1, doubled, (("v", 1),)).is_yes
    assert decide_e_homotopic(rp2_space, 1, essential, (("v", 1),)).is_no


def test_forced_unknown_marks_cover_incomplete(fix_c6, monkeypatch):
    # deterministically exercise the identification-incomplete plumbing
    from scalecover import covers
    from scalecover.rips import HomotopyDecision

    real = covers._word_trivial
    state = {"hits": 0}

    def flaky(pres, word, budget):
        decision = real(pres, word, budget)
        if decision.is_yes and word:
            state["hits"] += 1
            return HomotopyDecision("unknown", "budget",
                                    {"exhausted": "coset_rows", "budget": budget})
        return decision

    monkeypatch.setattr(covers, "_word_trivial", flaky)
    cover = build_cover(fix_c6, 1, 0, 4)
    assert state["hits"] > 0
    assert cover.identification_incomplete
    assert cover.unknown_pairs
    report = verify_endpoint_ucm(fix_c6, 1, cover)
    assert report.verdict == "Inconclusive"
    assert "identification" in report.reason


def test_random_fine_scale_covers_are_spaces(fix_l4):
    # at a hausdorff finest scale the cover of any point is its component
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 6)
        pairs = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        }
        sp = FilteredSpace(tuple(range(n)), (frozenset(pairs), frozenset()), True)
        base = rng.randrange(n)
        cover = build_cover(sp, 2, base, 3)
        assert cover.complete
        assert cover.num_vertices == 1
        component = chain_components(sp, 1).block_of(base)
        coarse = build_cover(sp, 1, base, n + 2)
        if coarse.complete and not coarse.identification_incomplete:
            fibers = {}
            for v, p in enumerate(coarse.endpoints):
                fibers.setdefault(p, []).append(v)
            assert set(fibers) == set(component)
            assert len({len(f) for f in fibers.values()}) == 1


def test_uniqueness_monotone_in_mode_random():
    rng = random.Random(77)
    import sys
    sys.path.insert(0, "tests")
    from test_acceptance import raw_random_map

    for _ in range(60):
        f = raw_random_map(rng)
        strong = check_approx_uniqueness(f, strong=True)
        plain = check_approx_uniqueness(f, strong=False)
        if strong.passed:
            assert plain.passed
        for ws, wp in zip(strong.witnesses, plain.witnesses):
            if ws is not None and wp is not None:
                assert wp <= ws


# ---------------------------------------------------------------------------
# neighbourhood-indexed verifiers against their all-pairs definitions


@st.composite
def random_map(draw):
    """An arbitrary (not necessarily continuous) map between random spaces."""
    source = draw(filtered_space())
    target = draw(filtered_space())
    points = st.sampled_from(target.points)
    n = len(source.points)
    assignment = draw(st.lists(points, min_size=n, max_size=n))
    return FilteredMap(source, target, tuple(assignment))


@st.composite
def random_action(draw):
    """Random permutations of a random space; they are rarely isometries."""
    space = draw(filtered_space())
    n = len(space.points)
    perms = st.permutations(space.points)
    generators = draw(st.lists(perms, min_size=1, max_size=2 if n <= 5 else 1))
    return close_group(space, generators)


@st.composite
def random_space_tower(draw):
    """Two or three stages of random spaces under random bondings.

    Each deeper space keeps only the pairs its bonding sends into the matching
    (and at its finest scale, the finest) target scale, so every bonding is
    uniformly continuous while the scales stay far from discrete.
    """
    spaces = [draw(filtered_space())]
    bondings = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        target = spaces[-1]
        raw = draw(filtered_space())
        n = len(raw.points)
        assignment = tuple(draw(st.lists(st.sampled_from(target.points),
                                         min_size=n, max_size=n)))
        image = dict(zip(raw.points, assignment))
        scales = []
        for j, pairs in enumerate(raw.scales, start=1):
            into = target.full_relation(
                target.depth if j == raw.depth else min(j, target.depth))
            scales.append(frozenset(
                (a, b) for a, b in pairs if (image[a], image[b]) in into))
        source = FilteredSpace(raw.points, tuple(scales), hausdorff=not scales[-1])
        spaces.append(source)
        bondings.append(FilteredMap(source, target, assignment))
    return SpaceTower(tuple(spaces), tuple(bondings))


# Swapping 1 and 2 on the edge {0, 1} plus the lone point 2 fixes 0, so
# N_1[G.0] = {0, 1} while G.N_1[0] = {0, 1, 2}: an isometry shortcut would
# call this non-isometric action neutral.
SWAPPED_END = (FilteredSpace((0, 1, 2), (frozenset({(0, 1)}),)), ((0, 2, 1),))


@settings(max_examples=150, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END))
def test_neutrality_matches_all_pairs_definition(action):
    space, pts = action.space, action.space.points
    table = diagnose_action(action).neutral["pair_table"]
    for e in range(1, space.depth + 1):
        for f in range(1, space.depth + 1):
            witness = next(
                ({"x": x, "g": action.perm_of_points(g), "y": y}
                 for g in action.elements for x in pts for y in pts
                 if space.related(f, x, action.apply(g, y))
                 and not any(space.related(e, action.apply(h, x), y)
                             for h in action.elements)),
                None,
            )
            assert table[(e, f)] == {"holds": witness is None, "counterexample": witness}


@settings(max_examples=150, deadline=None)
@given(random_map())
def test_chain_lifting_matches_all_pairs_definition(f):
    def first_unliftable(e, k):
        return next(
            ((x, y) for x in f.source.points for y in f.target.points
             if f.target.related(k, f(x), y)
             and not any(f(x2) == y and f.source.related(e, x, x2)
                         for x2 in f.source.points)),
            None,
        )

    result = check_chain_lifting(f)
    counterexample = None
    for e in range(1, f.source.depth + 1):
        failures = [first_unliftable(e, k) for k in range(1, f.target.depth + 1)]
        lifted = [k for k, failure in enumerate(failures, start=1) if failure is None]
        assert result.witnesses[e - 1] == (lifted[0] if lifted else None)
        if not lifted and counterexample is None:
            x, y = failures[-1]
            counterexample = {"kind": "unliftable_step", "source_scale": e,
                              "target_scale": f.target.depth,
                              "from_point": x, "step_to": y}
    assert result.counterexample == counterexample


@settings(max_examples=150, deadline=None)
@given(random_map())
def test_emitted_counterexamples_hold(f):
    """Every lifting and uniqueness counterexample the verifiers emit holds, and
    the checker agrees with the definition, over all points, on every variant
    with one point replaced."""
    def holds_by_definition(ce):
        if ce["kind"] == "unliftable_step":
            x, y, e = ce["from_point"], ce["step_to"], ce["source_scale"]
            return (f.target.related(ce["target_scale"], f(x), y)
                    and not any(f(x2) == y and f.source.related(e, x, x2)
                                for x2 in f.source.points))
        left, right = ce["chains"]
        j = ce["finer_scale"]
        close_scale = j if ce["mode"] == "strong" else ce["source_scale"]
        return (is_chain(f.source, j, left) and is_chain(f.source, j, right)
                and left[0] == right[0]
                and all(f(a) == f(b) for a, b in zip(left, right))
                and not f.source.related(close_scale, left[-1], right[-1]))

    emitted = [check_chain_lifting(f).counterexample,
               check_approx_uniqueness(f, strong=False).counterexample,
               check_approx_uniqueness(f, strong=True).counterexample]
    for ce in filter(None, emitted):
        assert counterexample_holds(f, ce)
        if ce["kind"] == "unliftable_step":
            variants = [{**ce, "step_to": y} for y in f.target.points]
        else:
            left, right = ce["chains"]
            variants = [{**ce, "chains": [left, right[:i] + [p] + right[i + 1:]]}
                        for i in range(len(right)) for p in f.source.points]
        for variant in variants:
            assert counterexample_holds(f, variant) == holds_by_definition(variant)
    with pytest.raises(ValueError, match="no checker"):
        counterexample_holds(f, {"kind": "no_continuity_witness", "target_scale": 1})


@settings(max_examples=150, deadline=None)
@given(random_map(), st.integers(min_value=1, max_value=3))
def test_singleton_property_matches_all_pairs_definition(f, k):
    k = min(k, f.source.depth)
    quotient = build_fiber_quotient(f, k)
    if not quotient.hypothesis_met:
        assert quotient.singleton_property is None
        return
    q, pts = quotient.q, f.source.points
    assert quotient.singleton_property == all(
        (q(x) == q(y)) == (f(x) == f(y) and f.source.related(k, x, y))
        for x in pts for y in pts
    )


@settings(max_examples=150, deadline=None)
@given(random_space_tower())
def test_limit_space_matches_all_pairs_definition(tower):
    limit = assemble_limit_space(tower)
    threads = limit.space.points
    top = tower.spaces[-1].points
    stages = [tower.composite(tower.length, i) for i in range(1, tower.length + 1)]
    assert set(threads) == {tuple(stage[x] for stage in stages) for x in top}
    agenda = sorted(
        ((i, j) for i in range(1, tower.length + 1)
         for j in range(1, tower.spaces[i - 1].depth + 1)),
        key=lambda ij: (ij[0] + ij[1], ij[0]),
    )
    current = set(itertools.combinations(threads, 2))
    scales, schedule = [], []
    for i, j in agenda:
        current = {(t, s) for t, s in current
                   if tower.spaces[i - 1].related(j, t[i - 1], s[i - 1])}
        if scales and scales[-1] == current:
            schedule[-1].append((i, j))
        else:
            scales.append(frozenset(current))
            schedule.append([(i, j)])
    assert limit.space.scales == tuple(scales)
    assert limit.schedule == tuple(map(tuple, schedule))
    # the product bound counts exactly the pairs related at the first entry
    seeded = len(scales[0])
    if len(top) * tower.length < seeded:
        assemble_limit_space(tower, product_bound=seeded)
        with pytest.raises(ProductTooLarge, match=f"^{seeded} thread pairs"):
            assemble_limit_space(tower, product_bound=seeded - 1)


# A constant map from a Hausdorff path: every pair of the path lies over the
# one target point, so no target scale pulls back into the diagonal.
CONSTANT_ON_PATH = FilteredMap(
    FilteredSpace((0, 1, 2), (frozenset({(0, 1), (1, 2)}), frozenset()), hausdorff=True),
    FilteredSpace(("p",), (frozenset(),), hausdorff=True),
    ("p", "p", "p"),
)


@settings(max_examples=150, deadline=None)
@given(random_map())
@example(CONSTANT_ON_PATH)
def test_pullback_witnesses_match_all_pairs_definition(f):
    src, tgt = f.source, f.target
    expected = tuple(
        next((k for k in range(1, tgt.depth + 1)
              if all(src.related(e, x, y) for x in src.points for y in src.points
                     if tgt.related(k, f(x), f(y)))),
             None)
        for e in range(1, src.depth + 1)
    )
    assert f.pullback_witnesses == expected


def part_b_by_all_pairs(space, quotients):
    """The entourage checks of action_tower_verify's part (b) as all-pair loops."""
    n = len(quotients)
    space_thread = {
        x: tuple(q.projection(x) for q in quotients) for x in space.points
    }
    forward = all(
        any(
            all(
                quotients[s].space.related(j, space_thread[x][s], space_thread[y][s])
                for x, y in space.full_relation(e)
            )
            for e in range(1, space.depth + 1)
        )
        for s in range(n)
        for j in range(1, quotients[s].space.depth + 1)
    )
    backward = True
    for e in range(1, space.depth + 1):
        witness = None
        for s in range(n):
            for j in range(1, quotients[s].space.depth + 1):
                if all(
                    space.related(e, x, y)
                    for x in space.points
                    for y in space.points
                    if quotients[s].space.related(j, space_thread[x][s], space_thread[y][s])
                ):
                    witness = (s + 1, j)
                    break
            if witness:
                break
        if witness is None:
            backward = False
    return {"entourage_forward": forward, "entourage_backward": backward}


# SWAPPED_END made Hausdorff: the swap fixes 0, so even the finest stage
# quotient glues 1 to 2 and no stage pulls back into the finest scale.
SWAPPED_END_HAUSDORFF = (
    FilteredSpace((0, 1, 2), (frozenset({(0, 1)}), frozenset()), hausdorff=True),
    ((0, 2, 1),),
)


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END_HAUSDORFF))
def test_action_tower_part_b_matches_all_pairs_loops(action):
    """Part (b) reads only the stage quotients.  To reach it on every draw,
    also where the orbit tower does not embed the space, the hypothesis gate
    is opened: the space is flagged Hausdorff and the diagnosis is stubbed."""
    opened = dataclasses.replace(
        action, space=dataclasses.replace(action.space, hausdorff=True))
    diagnosis = mock.Mock()
    diagnosis.is_equicontinuous.return_value = True
    diagnosis.has_ss_bounded_orbits.return_value = True
    with mock.patch.object(actions, "diagnose_action", return_value=diagnosis):
        report = action_tower_verify(opened)
    quotients = [quotient_at_scale(opened, k) for k in range(1, opened.space.depth + 1)]
    expected = part_b_by_all_pairs(opened.space, quotients)
    assert {k: report.part_b[k] for k in expected} == expected
