"""Cross-cutting invariants exercised on randomized and structured instances."""

import collections
import contextlib
import dataclasses
import enum
import fractions
import hashlib
import heapq
import io
import itertools
import json
import math
import os
import random
import re
import tempfile
import types
from unittest import mock

import networkx as nx
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import oracle_h1, rp2_subdivision_space, telescoping_backward_group
from reference_writer import reference_dumps
from test_golden_reports import scales_spec
from test_acceptance import cyclic_cover_map, double_cover_map, raw_random_map, relabel_map
from scalecover import cli, covers, formats, rips, spaces
from scalecover import intlinalg as ila
from scalecover.covers import (
    BadScalePair,
    UcmReport,
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
    saturate_invariant,
)
from scalecover.quotients import (
    FilteredMap,
    build_fiber_quotient,
    check_approx_uniqueness,
    check_chain_lifting,
    check_generates,
    counterexample_holds,
    factor_and_verify,
    fiber_e_components,
    verify_gucm,
    _uniqueness_condition,
)
from scalecover.rips import (
    AbelianGroupInv,
    decide_e_homotopic,
    h1_at_scale,
    h1_class,
    reduce_chain,
)
from scalecover.spaces import (
    AsymmetricMatrix,
    Chain,
    FilteredSpace,
    NonDecreasingRadii,
    NonReflexive,
    NonSymmetric,
    NotNested,
    Partition,
    SpaceError,
    UnknownPoint,
    chain_components,
    from_finest,
    from_metric,
    is_chain,
    subspace,
    validate_space,
)
from scalecover.towers import (
    ProductTooLarge,
    ReconstructionReport,
    SpaceTower,
    StrongMlReport,
    TowerAb,
    assemble_limit_space,
    lim1_verdict,
    quotient_tower_reconstruct,
    strong_ml_check,
)


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


def full_relation(space, k):
    """Scale k as a set of ordered pairs, diagonal included."""
    return frozenset((x, y) for x in space.points for y in space.closed(k, x))


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
def _fresh_presentations(name, value):
    """Run with ``rips.<name>`` patched to value, on fresh presentations.

    The reductions are memoized on each presentation, so callers pass a
    fresh ``dataclasses.replace(pres)``; the presentation cache is cleared on
    entry and exit, so no presentation built under the patch outlives it.
    """
    with mock.patch.object(rips, name, value):
        rips.presentation_at_scale.cache_clear()
        try:
            yield
        finally:
            rips.presentation_at_scale.cache_clear()


def _tietze_cap(cap):
    """Run with the word elimination's letter cap patched."""
    return _fresh_presentations("TIETZE_LETTER_CAP", cap)


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
    bonding maps agree with the oracles, with unit pivots on and off."""
    sp, j, k, loop = data
    expected = {}
    for scale in {j, k}:
        index, edges, triangles = _skeleton(sp, scale)
        group = AbelianGroupInv(*oracle_h1(edges, triangles, len(index)))
        expected[scale] = group, _is_boundary_sum(sp, scale, loop)
    # unit pivots leave a small core; without them Smith factors every relator
    for pivot in (rips._unit_pivot, lambda row: None):
        with _fresh_presentations("_unit_pivot", pivot):
            for scale, (group, bounds) in expected.items():
                assert h1_at_scale(sp, scale) == group
                assert (not any(h1_class(sp, scale, loop))) == bounds
            b = bonding_h1_map(sp, j, k)
            image = [sum(m * x for m, x in zip(row, h1_class(sp, j, loop)))
                     for row in b.matrix]
            for r, d in enumerate(b.target.torsion):
                image[r] %= d
            assert tuple(image) == h1_class(sp, k, loop)


@settings(max_examples=100, deadline=None)
@given(filtered_space())
@example(RP2)
@example(KING_TORUS)
def test_rips_triangles_match_all_triples_definition(sp):
    """Triangles are the pairwise-related triples, each and all in point order."""
    for k in range(1, sp.depth + 1):
        expected = tuple(t for t in itertools.combinations(sp.points, 3)
                         if all(sp.related(k, x, y) for x, y in itertools.combinations(t, 2)))
        assert rips.rips_2_skeleton(sp, k).triangles == expected


def _reference_cyclic_reduce(word):
    word = list(rips.free_reduce(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def _reference_simplified(pres):
    """Tietze elimination by rescanning: every step rewrites every relator and
    substitution word, re-sorts the relators and scans them for a pivot."""
    _cyclic_reduce, invert_word, free_reduce = (
        _reference_cyclic_reduce, rips.invert_word, rips.free_reduce)
    subst = {g: (g,) for g in range(1, len(pres.generators) + 1)}
    rels = sorted(
        {r for r in (_cyclic_reduce(rel) for rel in pres.relators) if r},
        key=lambda r: (len(r), r),
    )

    def substitute(word, g, replacement):
        out = []
        for lt in word:
            if abs(lt) == g:
                out.extend(replacement if lt > 0 else invert_word(replacement))
            else:
                out.append(lt)
        return free_reduce(out)

    limit = sum(len(r) for r in rels) + rips.TIETZE_LETTER_CAP
    while sum(len(r) for r in rels) < limit:
        for rel in rels:
            counts = collections.Counter(map(abs, rel))
            pos = next((i for i, x in enumerate(rel) if counts[abs(x)] == 1), None)
            if pos is not None:
                break
        else:
            break
        rotated = rel[pos:] + rel[:pos]
        letter, rest = rotated[0], rotated[1:]
        g = abs(letter)
        replacement = invert_word(rest) if letter > 0 else rest
        subst = {key: substitute(word, g, replacement) for key, word in subst.items()}
        new_rels = set()
        for r in rels:
            reduced = _cyclic_reduce(substitute(r, g, replacement))
            if reduced:
                new_rels.add(reduced)
        rels = sorted(new_rels, key=lambda r: (len(r), r))
    return subst, tuple(rels)


def _bare_presentation(ngens, relators):
    """A presentation that carries only what elimination reads."""
    return rips.GroupPresentation(None, 1, None, (), (), tuple(range(ngens)),
                                  tuple(map(tuple, relators)))


@st.composite
def random_presentation(draw):
    """Random relators, with repeats, with relators that free-reduce to empty,
    and with u g v and u A^-1 v, which become equal once g A solves for g."""
    n = draw(st.integers(min_value=1, max_value=5))

    def words(avoid=0):
        letters = [x for g in range(1, n + 1) if g != avoid for x in (g, -g)]
        return st.lists(st.sampled_from(letters), max_size=7) if letters else st.just([])

    rels = draw(st.lists(words(), max_size=6))
    if rels:
        rels += draw(st.lists(st.sampled_from(rels), max_size=2))
    w = draw(words())
    rels.append(w + list(rips.invert_word(w)))
    g = draw(st.integers(min_value=1, max_value=n))
    a, u, v = draw(words(g)), draw(words(g)), draw(words(g))
    rels += [[g] + a, u + [g] + v, u + list(rips.invert_word(a)) + v]
    return _bare_presentation(n, draw(st.permutations(rels)))


def noisy_circle(n, seed):
    """n integer points on a circle of radius 1000 with +-3 jitter, at
    squared-distance radii (4s)^2 and (2s)^2 for the spacing s."""
    rng = random.Random(seed)
    pts = [(round(1000 * math.cos(2 * math.pi * i / n)) + rng.randint(-3, 3),
            round(1000 * math.sin(2 * math.pi * i / n)) + rng.randint(-3, 3))
           for i in range(n)]
    matrix = [[(ax - bx) ** 2 + (ay - by) ** 2 for bx, by in pts] for ax, ay in pts]
    s2 = (2 * math.pi * 1000 / n) ** 2
    return from_metric(matrix, [math.floor(16 * s2), math.floor(4 * s2)])


# solving (1, 2, 2) for 1 lengthens the second relator, so a cap of one
# letter of growth over the initial 20 stops elimination after that first step
GROWING = _bare_presentation(5, [(1, 2, 2), (1, 1, 1, 1, 3, 3, 3, 3), (4,) + (5,) * 8])


@settings(max_examples=200, deadline=None)
@given(random_presentation())
@example(rips.presentation_at_scale(RP2, 1, None))
@example(rips.presentation_at_scale(KING_TORUS, 1, None))
@example(rips.presentation_at_scale(noisy_circle(24, 0), 1, None))
@example(GROWING)
def test_elimination_matches_rescanning_loop(pres):
    """Same pivots, same substitution and same residual as the rescanning
    loop, at the default cap and at caps 0, 1 and one above the initial
    letter count."""
    initial = sum(len(r) for r in {_reference_cyclic_reduce(r) for r in pres.relators})
    for cap in (rips.TIETZE_LETTER_CAP, 0, 1, initial + 1):
        with _tietze_cap(cap):
            subst, residual = rips._simplified(dataclasses.replace(pres))
            expected_subst, expected_residual = _reference_simplified(pres)
        assert list(subst.items()) == list(expected_subst.items())
        assert residual == expected_residual


def test_letter_cap_stops_elimination_partway():
    full, partway = [], []
    for cap, out in ((rips.TIETZE_LETTER_CAP, full), (1, partway)):
        with _tietze_cap(cap):
            out.extend(g for g, w in rips._simplified(dataclasses.replace(GROWING))[0].items() if w != (g,))
    assert partway == [1]
    assert full == [1, 4]


def _old_pres_abelian(pres):
    """``rips._pres_abelian`` as it was before each pivot discarded its own
    row from the popped row set: it substitutes into a set difference."""
    rows = []
    rows_with = {g: set() for g in range(1, len(pres.generators) + 1)}
    for rel in pres.relators:
        row = {}
        for letter in rel:
            g = abs(letter)
            row[g] = row.get(g, 0) + (1 if letter > 0 else -1)
        row = {g: a for g, a in row.items() if a}
        for g in row:
            rows_with[g].add(len(rows))
        rows.append(row)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    steps = []
    while heap:
        n, i = heapq.heappop(heap)
        row = rows[i]
        if len(row) != n or (g := rips._unit_pivot(row)) is None:
            continue
        a = row.pop(g)
        solution = {h: -a * b for h, b in row.items()}
        steps.append((g, solution))
        rows[i] = {}
        for h in row:
            rows_with[h].discard(i)
        for j in rows_with.pop(g) - {i}:
            other = rows[j]
            c = other.pop(g)
            for h, b in solution.items():
                value = other.get(h, 0) + c * b
                if value:
                    other[h] = value
                    rows_with[h].add(j)
                else:
                    del other[h]
                    rows_with[h].discard(j)
            if other:
                heapq.heappush(heap, (len(other), j))
    residual = [row for row in rows if row]
    core = sorted({g for row in residual for g in row})
    column = {g: c for c, g in enumerate(core)}
    r = ila.zeros(len(core), len(residual))
    for j, row in enumerate(residual):
        for g, a in row.items():
            r[column[g]][j] = a
    u, s, _ = ila.smith_normal_form(r)
    diag = ila.diagonal_of(s)
    diag += [0] * (len(core) - len(diag))
    kept = tuple(i for i, d in enumerate(diag) if d != 1)
    free = tuple(g for g in rows_with if g not in column)
    return (tuple(steps), tuple(core), tuple(map(tuple, u)), kept,
            tuple(diag[i] for i in kept), free)


@settings(max_examples=200, deadline=None)
@given(random_presentation())
@example(rips.presentation_at_scale(RP2, 1, None))
@example(rips.presentation_at_scale(KING_TORUS, 1, None))
@example(rips.presentation_at_scale(noisy_circle(24, 0), 1, None))
# single-entry rows: units that drop a generator, and +-2 entries that stay
@example(_bare_presentation(4, [(1,), (2, 2), (-3, -3), (1, 2, 3), (-4,), (4, 1, 2)]))
@example(_bare_presentation(3, [(1, 1), (2, -1, 3), (-2, -2, -2, 1)]))
def test_unit_pivots_match_substituting_loop(pres):
    """Eliminations, core, row transform, kept positions, moduli and free
    survivors all equal those of the loop that substitutes into a set
    difference."""
    assert rips._pres_abelian(dataclasses.replace(pres)) == _old_pres_abelian(pres)


def test_letter_cap_bounds_growth_not_size():
    """A presentation that starts above the cap is still eliminated down to
    rank-many survivors: the 18-cycle thickened to radius 2 has H1 = Z."""
    pres = rips.presentation_at_scale(from_metric(
        [[min(abs(i - j), 18 - abs(i - j)) for j in range(18)] for i in range(18)], [2]),
        1, None)
    initial = sum(len(r) for r in {_reference_cyclic_reduce(r) for r in pres.relators})
    assert initial > initial // 2 > 0
    with _tietze_cap(initial // 2):
        subst, residual = rips._simplified(dataclasses.replace(pres))
    assert len([g for g, w in subst.items() if w == (g,)]) == 1
    assert residual == ()


def _tietze_smith_abelian(pres):
    """H1 as it was read before the sparse elimination: the Smith form of the
    word Tietze residual over the surviving generators.  Returns (column, u,
    kept, moduli) as the old ``rips._pres_abelian`` did."""
    subst, rels = rips._simplified(pres)
    column = {g: i for i, g in enumerate(g for g, w in subst.items() if w == (g,))}
    r = ila.zeros(len(column), len(rels))
    for j, rel in enumerate(rels):
        for letter in rel:
            r[column[abs(letter)]][j] += 1 if letter > 0 else -1
    u, s, _ = ila.smith_normal_form(r)
    diag = ila.diagonal_of(s)
    diag += [0] * (len(column) - len(diag))
    kept = tuple(i for i, d in enumerate(diag) if d != 1)
    return column, u, kept, tuple(diag[i] for i in kept)


def _tietze_smith_coords(pres, abelian, word):
    """The old ``rips._h1_coords``: the word through the Tietze substitution,
    counted over the survivors and read through the row transform."""
    column, u, kept, moduli = abelian
    counts = collections.Counter()
    for letter in rips._expand(pres, word):
        counts[column[abs(letter)]] += 1 if letter > 0 else -1
    return tuple(rips._reduce(sum(u[i][c] * n for c, n in counts.items()), d)
                 for i, d in zip(kept, moduli))


def gnp_space(n, p, seed):
    """The random graph G(n, p) of random.Random(seed) as a one-scale space."""
    rng = random.Random(seed)
    pairs = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    return FilteredSpace(tuple(range(n)), (pairs,), hausdorff=False)


@st.composite
def small_gnp(draw):
    return gnp_space(draw(st.integers(min_value=1, max_value=12)),
                     draw(st.sampled_from((0.2, 0.35, 0.5, 0.7, 0.9))),
                     draw(st.integers(min_value=0, max_value=2 ** 16)))


def _loop_words(pres, rng, count=12):
    """Words over the generators: products of relators, which are zero in H1,
    mixed with single and doubled letters, which are zero only by torsion or
    by the relators."""
    letters = [s * g for g in range(1, len(pres.generators) + 1) for s in (1, -1)]
    for _ in range(count):
        word = []
        for _ in range(rng.randint(0, 4)):
            if pres.relators and rng.random() < 0.6:
                rel = rng.choice(pres.relators)
                word += rel if rng.random() < 0.5 else rips.invert_word(rel)
            elif letters:
                word += [rng.choice(letters)] * rng.randint(1, 2)
        yield tuple(word)


@settings(max_examples=150, deadline=None)
@given(st.one_of(filtered_space(), small_gnp()), st.randoms(use_true_random=False))
@example(RP2, random.Random(0))
@example(RP2_AND_SQUARE, random.Random(0))
@example(KING_TORUS, random.Random(0))
def test_sparse_abelianization_matches_tietze_then_smith(sp, rng):
    """The unit-pivot elimination gives the groups of the Tietze residual's
    Smith form, its coordinates vanish on the same words, and every cover
    has the same buckets under both."""
    for k in range(1, sp.depth + 1):
        pres = rips.presentation_at_scale(sp, k, None)
        old = _tietze_smith_abelian(pres)
        moduli = old[3]
        assert rips.presentation_h1(pres) == AbelianGroupInv(
            moduli.count(0), tuple(d for d in moduli if d))
        for word in _loop_words(pres, rng):
            assert (not any(rips._h1_coords(pres, word))) == \
                (not any(_tietze_smith_coords(pres, old, word)))
        base = rng.choice(sp.points)
        cover = build_cover(sp, k, base, 4)
        based = rips.presentation_at_scale(sp, k, base)
        if not based.relators:
            continue  # buckets are then the reduced words, not H1 classes
        based_old = _tietze_smith_abelian(based)
        partitions = []
        for key in (lambda w: rips._h1_coords(based, w),
                    lambda w: _tietze_smith_coords(based, based_old, w)):
            blocks = collections.defaultdict(set)
            for vid, (end, word) in enumerate(zip(cover.endpoints, cover.words)):
                blocks[end, key(word)].add(vid)
            partitions.append(sorted(map(sorted, blocks.values())))
        assert partitions[0] == partitions[1]


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


# finite groups G: generators as permutation tuples, relators as positive
# words over 1..m, and the order of H1(G), onto which each generator maps as 1
_FINITE_FACTORS = {
    "Z/2": (((1, 0),), ((1, 1),), 2),
    "Z/3": (((1, 2, 0),), ((1, 1, 1),), 3),
    "S3": (((1, 0, 2), (0, 2, 1)), ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2)), 2),
}


@st.composite
def free_product_words(draw):
    """(factor name, free rank r, offset, word) over F_r * G: G's m generators
    are numbered offset + 1 .. offset + m and the free ones around them.

    A word is a product of pieces u x u^-1, x a word in G's letters or a
    rotated relator, and of a few random words, closed by one more u x u^-1
    whose x = g^e makes the word's H1(G) part vanish, so that most words get
    past H1 separation and the free-factor projection."""
    name = draw(st.sampled_from(sorted(_FINITE_FACTORS)))
    perms, rels, h1_order = _FINITE_FACTORS[name]
    r = draw(st.integers(0, 2))
    offset = draw(st.integers(0, r))
    n = r + len(perms)
    letter = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    g_letter = st.integers(offset + 1, offset + len(perms)).flatmap(
        lambda g: st.sampled_from((g, -g)))

    def rotated(rel, k):
        k %= len(rel)
        return [offset + x for x in rel[k:] + rel[:k]]

    def conjugate(u, x):
        return u + list(x) + [-y for y in reversed(u)]

    pieces = draw(st.lists(st.one_of(
        st.builds(conjugate, st.lists(letter, max_size=3),
                  st.one_of(st.lists(g_letter, min_size=1, max_size=4),
                            st.builds(rotated, st.sampled_from(rels), st.integers(0, 5)))),
        st.lists(letter, max_size=3)), max_size=4))
    word = [x for piece in pieces for x in piece]
    e = -sum(1 if x > 0 else -1 for x in word if offset < abs(x) <= offset + len(perms))
    word += conjugate(draw(st.lists(letter, max_size=3)), [offset + 1] * (e % h1_order))
    return name, r, offset, tuple(word)


def _free_product_form(perms, offset, word):
    """The reduced form in F * G of a word, G's letters read as permutations:
    free letters, and G's non-identity elements as permutation tuples."""
    identity = tuple(range(len(perms[0])))
    out = []
    for x in word:
        i = abs(x) - offset - 1
        if not 0 <= i < len(perms):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
            continue
        p = perms[i] if x > 0 else tuple(perms[i].index(j) for j in identity)
        top = out.pop() if out and type(out[-1]) is tuple else identity
        product = tuple(p[j] for j in top)  # top first, then p
        if product != identity:
            out.append(product)
    return out


@settings(max_examples=300, deadline=None)
@given(free_product_words())
@example(("Z/2", 1, 0, (2, 1, -2, 1)))
@example(("S3", 1, 0, (3, -2, 1, 1, 1, -2, 1, 2, -1, -3)))
@example(("S3", 2, 1, (1, 2, -1, 3, 2, 3, -1, 2, 3, 1)))
def test_word_problem_matches_free_product_referee(case):
    """On F_r * G for G in Z/2, Z/3 and S3, the word problem answers Yes
    exactly when the referee's free-product reduced form is empty, never
    Unknown; a normal-form No has the referee's free letters, and G syllables
    where the referee has them, whose cosets name its permutations one to one."""
    name, r, offset, word = case
    perms, rels, _ = _FINITE_FACTORS[name]
    relators = [[offset + x for x in rel] for rel in rels]
    pres = _bare_presentation(r + len(perms), relators)
    decision = rips._word_trivial(pres, word, rips.DEFAULT_COSET_ROWS)
    form = _free_product_form(perms, offset, word)
    assert decision.verdict == ("no" if form else "yes"), (case, decision)
    if decision.method == "coset_enumeration" and decision.is_no:
        normal_form = decision.witness["normal_form"]
        assert len(normal_form) == len(form)
        named = {}
        for ours, theirs in zip(normal_form, form):
            if type(theirs) is int:
                assert ours == theirs
            else:
                assert named.setdefault(ours["coset"], theirs) == theirs
        assert len(set(named.values())) == len(named)
        assert decision.witness["group_order"] == {"Z/2": 2, "Z/3": 3, "S3": 6}[name]


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
                                    {"exhausted": "ident_budget", "budget": budget})
        return decision

    monkeypatch.setattr(covers, "_word_trivial", flaky)
    cover = build_cover(fix_c6, 1, 0, 4)
    assert state["hits"] > 0
    assert cover.identification_incomplete
    assert cover.unknown_pairs
    report = verify_endpoint_ucm(cover)
    assert report.verdict == "Inconclusive"
    assert report.reason == "ident_budget exhausted; classes undetermined"


def _flaky_word_trivial(modulus):
    """The word problem with each Yes on a non-empty word whose length is a
    multiple of modulus turned into Unknown; modulus 0 changes nothing."""
    def word_trivial(pres, word, budget):
        decision = rips._word_trivial(pres, word, budget)
        if modulus and decision.is_yes and word and len(word) % modulus == 0:
            return rips.HomotopyDecision("unknown", "budget",
                                         {"exhausted": "ident_budget", "budget": budget})
        return decision

    return word_trivial


def _reference_resolve_slot(ref, vid, y, word_trivial, swap, allow_create=True):
    """_resolve_slot and _identify before buckets and trees: the extension is
    reduced by reduce_chain, and every vertex with its endpoint is compared.
    With swap, a class found again takes the smaller representative by
    (length, point indices), as build_cover once did."""
    space, k = ref.space, ref.scale
    candidate = reduce_chain(space, k, ref.reps[vid] + (y,)).seq
    word = rips.chain_word(ref.presentation, Chain(k, candidate))
    target, pending = None, []
    for v in range(len(ref.reps)):
        if ref.endpoints[v] != y:
            continue
        if ref.words[v] == word:
            target = v
            break
        combined = rips.free_reduce(word + rips.invert_word(ref.words[v]))
        decision = word_trivial(ref.presentation, combined, ref.ident_budget)
        if decision.is_yes:
            target = v
            break
        if decision.is_unknown:
            pending.append({"candidate": list(candidate), "vertex": v,
                            "reason": decision.witness})
    if target is None and pending:
        ref.identification_incomplete = True
        ref.unknown_pairs.extend(pending)
    created = target is None
    if created:
        if not allow_create:
            return False
        target = _reference_add_vertex(ref, candidate)
    elif swap:
        old = ref.reps[target]
        new_key = (len(candidate), tuple(space.index(p) for p in candidate))
        old_key = (len(old), tuple(space.index(p) for p in old))
        if new_key < old_key:
            ref.reps[target] = candidate
            ref.words[target] = word
    ref.edges[vid][y] = target
    return created


def _reference_add_vertex(ref, seq):
    ref.reps.append(seq)
    ref.words.append(rips.chain_word(ref.presentation, Chain(ref.scale, seq)))
    ref.endpoints.append(seq[-1])
    ref.edges.append({y: None for y in ref.space.neighbors(ref.scale, seq[-1])})
    return len(ref.reps) - 1


def _reference_build_cover(space, k, base, radius, word_trivial):
    """build_cover's breadth-first rounds and closure pass, over the linear
    scan, swapping in smaller representatives."""
    ref = types.SimpleNamespace(
        space=space, scale=k, ident_budget=rips.DEFAULT_COSET_ROWS,
        presentation=rips.presentation_at_scale(space, k, base), reps=[], words=[],
        endpoints=[], edges=[], frontier_radius=0, complete=False,
        identification_incomplete=False, unknown_pairs=[])
    _reference_add_vertex(ref, (base,))

    def unresolved_slots():
        return [(v, y) for v in range(len(ref.reps)) for y in ref.edges[v]
                if ref.edges[v][y] is None]

    rounds = 0
    while rounds < radius:
        unresolved = unresolved_slots()
        if not unresolved:
            ref.complete = True
            break
        new_classes = 0
        for v, y in unresolved:
            if ref.edges[v][y] is None:
                new_classes += _reference_resolve_slot(ref, v, y, word_trivial, True)
        rounds += 1
        ref.frontier_radius = rounds
        if new_classes == 0:
            ref.complete = True
            break
    if not ref.complete:
        for v, y in unresolved_slots():
            _reference_resolve_slot(ref, v, y, word_trivial, True, allow_create=False)
        ref.complete = not unresolved_slots()
    return ref


def _reference_lift(ref, seq, word_trivial, swap=False):
    """lift_chain from vertex 0 with an extension budget of len(seq)."""
    lift = [0]
    for y in seq[1:]:
        cur = lift[-1]
        if y == ref.endpoints[cur]:
            lift.append(cur)
            continue
        if ref.edges[cur][y] is None:
            _reference_resolve_slot(ref, cur, y, word_trivial, swap)
        lift.append(ref.edges[cur][y])
    return lift


COVER_FIELDS = ("reps", "words", "endpoints", "edges", "complete", "frontier_radius",
                "identification_incomplete", "unknown_pairs")


# lifting the walks below past the frontier finds a smaller representative
# of a vertex, which lift_chain does not swap in: on SWAP_WORD the swap would
# change the vertex's word; on SWAP_BETWEEN it would turn (5, 4, 3) into
# (5, 0, 3), and the later candidate (5, 2, 3) lies between the two
SWAP_WORD = FilteredSpace(tuple(range(4)), (frozenset(
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),))
SWAP_BETWEEN = FilteredSpace(tuple(range(7)), (frozenset(
    [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
     (3, 4), (4, 5), (5, 6)]),))


@st.composite
def cover_case(draw):
    """A space, a scale, a basepoint, a radius budget, a forced-Unknown
    modulus and a scale-k walk from the basepoint."""
    sp = draw(st.one_of(filtered_space(), connected_space()))
    k = draw(st.integers(min_value=1, max_value=sp.depth))
    base = draw(st.sampled_from(sp.points))
    walk = [base]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        walk.append(draw(st.sampled_from((walk[-1],) + sp.neighbors(k, walk[-1]))))
    return (sp, k, base, draw(st.integers(min_value=0, max_value=6)),
            draw(st.sampled_from((0, 0, 1, 2, 3))), tuple(walk))


@settings(max_examples=300, deadline=None)
@given(cover_case())
@example((KING_TORUS, 1, 0, 3, 0, (0, 1, 2, 3, 0, 4, 8, 12, 0)))
@example((KING_TORUS, 1, 0, 2, 2, (0, 5, 10, 15, 0, 1, 2)))
@example((KING_TORUS, 1, 0, 0, 0, (0, 1, 2, 5)))
@example((RP2, 1, RP2.points[0], 16, 0, RP2_LOOP))
@example((RP2, 1, RP2.points[0], 3, 3, RP2_LOOP))
@example((SWAP_WORD, 1, 3, 0, 2, (3, 2, 0, 0, 1, 0, 2)))
@example((SWAP_BETWEEN, 1, 5, 1, 3, (5, 4, 3, 0, 3, 2, 3, 3, 4, 5, 2, 6, 2)))
def test_bucketed_cover_matches_linear_scan(case):
    """build_cover and lift_chain with on-demand extension give the same
    cover as the linear scan over every same-endpoint vertex with full
    reduce_chain, also when some Yes answers are forced to Unknown.  The
    build equals the scan that swaps in smaller representatives, so
    build_cover never needs a swap; lift_chain keeps the first one found."""
    sp, k, base, radius, modulus, walk = case
    word_trivial = _flaky_word_trivial(modulus)
    ref = _reference_build_cover(sp, k, base, radius, word_trivial)
    with mock.patch.object(covers, "_word_trivial", word_trivial):
        cover = build_cover(sp, k, base, radius)
        for name in COVER_FIELDS:
            assert getattr(cover, name) == getattr(ref, name), name
        lift = covers.lift_chain(cover, 0, walk, extend_budget=len(walk))
    assert lift == _reference_lift(ref, walk, word_trivial)
    for name in COVER_FIELDS:
        assert getattr(cover, name) == getattr(ref, name), name


def test_lift_keeps_first_representative():
    """On the SWAP walks the swapping scan changes a representative that
    lift_chain keeps: the two rules differ only past the frontier."""
    for case in ((SWAP_WORD, 1, 3, 0, (3, 2, 0, 0, 1, 0, 2)),
                 (SWAP_BETWEEN, 1, 5, 1, (5, 4, 3, 0, 3, 2, 3, 3, 4, 5, 2, 6, 2))):
        sp, k, base, radius, walk = case
        cover = build_cover(sp, k, base, radius)
        covers.lift_chain(cover, 0, walk, extend_budget=len(walk))
        ref = _reference_build_cover(sp, k, base, radius, rips._word_trivial)
        _reference_lift(ref, walk, rips._word_trivial, swap=True)
        assert cover.edges == ref.edges
        assert cover.reps != ref.reps


@settings(max_examples=200, deadline=None)
@given(cover_case())
@example((KING_TORUS, 1, 0, 0, 0, (0, 1, 2)))
# past the frontier at 0: 5 shortens to the unexplored slot (0, 5), so the new
# vertex's parent is 0, not the vertex (0, 1) the walk stands on
@example((KING_TORUS, 1, 0, 0, 0, (0, 1, 5)))
@example((SWAP_BETWEEN, 1, 5, 1, 0, (5, 4, 3, 0, 3, 2, 3, 3, 4, 5, 2, 6, 2)))
def test_representatives_form_a_tree(case):
    """Each vertex's representative is its parent's plus its endpoint, and
    reduced; each resolved slot holds the class of the reduced extension;
    extending by a point outside the endpoint's closed neighbourhood is
    refused.  Also for vertices lift_chain creates past the frontier."""
    sp, k, base, radius, _, walk = case
    cover = build_cover(sp, k, base, radius)
    covers.lift_chain(cover, 0, walk, extend_budget=len(walk))
    pres = cover.presentation
    assert cover.parents[0] is None
    for v, rep in enumerate(cover.reps):
        if v:
            assert rep == cover.reps[cover.parents[v]] + (cover.endpoints[v],)
        assert reduce_chain(sp, k, rep).seq == rep
        for y, t in cover.edges[v].items():
            if t is None:
                continue
            seq = reduce_chain(sp, k, rep + (y,)).seq
            if seq != cover.reps[t]:
                word = rips.chain_word(pres, Chain(k, seq))
                combined = rips.free_reduce(word + rips.invert_word(cover.words[t]))
                assert rips._word_trivial(pres, combined, cover.ident_budget).is_yes
        for y in sp.points:
            if y not in sp.closed(k, cover.endpoints[v]):
                with pytest.raises(rips.SpaceError):
                    covers._resolve_slot(cover, v, y)


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
            into = full_relation(
                target, target.depth if j == raw.depth else min(j, target.depth))
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
    scales = []
    for i, j in agenda:
        current = {(t, s) for t, s in current
                   if tower.spaces[i - 1].related(j, t[i - 1], s[i - 1])}
        if not scales or scales[-1] != current:
            scales.append(frozenset(current))
    assert limit.space.scales == tuple(scales)
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


@settings(max_examples=150, deadline=None)
@given(random_map())
@example(CONSTANT_ON_PATH)
def test_generation_matches_all_pairs_definition(f):
    src, tgt = f.source, f.target
    images = [frozenset((f(a), f(b)) for a, b in full_relation(src, j))
              for j in range(1, src.depth + 1)]
    continuity = tuple(
        next((j for j, img in enumerate(images, start=1) if img <= full_relation(tgt, k)),
             None)
        for k in range(1, tgt.depth + 1)
    )
    cofinal = tuple(
        next((k for k in range(1, tgt.depth + 1) if full_relation(tgt, k) <= img), None)
        for img in images
    )
    counterexample = None
    if None in continuity:
        counterexample = {"kind": "no_continuity_witness",
                          "target_scale": continuity.index(None) + 1}
    elif None in cofinal:
        j = cofinal.index(None) + 1
        missing = sorted(full_relation(tgt, tgt.depth) - images[j - 1],
                         key=lambda ab: (tgt.index(ab[0]), tgt.index(ab[1])))
        counterexample = {"kind": "image_not_entourage", "source_scale": j,
                          "missing_pair": list(missing[0])}
    result = check_generates(f)
    assert (result.continuity, result.image_cofinal) == (continuity, cofinal)
    assert result.counterexample == counterexample
    assert result.passed == (counterexample is None)


def fhat(cover, j):
    """Entourage basis relation on cover vertices induced by scale j >= k.

    Two classes are related when one extends the other by a single step
    between their endpoints and those endpoints are j-close.
    """
    if j < cover.scale:
        raise BadScalePair(f"scale {j} is coarser than the cover scale {cover.scale}")
    cover.space.check_scale(j)
    pairs = set()
    for u in range(cover.num_vertices):
        near = cover.space.closed(j, cover.endpoints[u])
        for y, v in cover.edges[u].items():
            if v is not None and v != u and y in near:
                pairs.add((u, v) if u < v else (v, u))
    return frozenset(pairs)


def old_verify_endpoint_ucm(cover):
    """verify_endpoint_ucm as it was: generation, one-step lifting and
    transversality swept over fhat at every scale from the cover's on, with
    the identification reason renamed after the budget it names."""
    space, k = cover.space, cover.scale
    if cover.identification_incomplete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "ident_budget exhausted; classes undetermined")
    if not cover.complete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "radius budget exhausted before completion")
    component = set(cover.presentation.component)
    rels = {j: fhat(cover, j) for j in range(k, space.depth + 1)}
    failures = []
    for j, rel in rels.items():
        image = {
            space.pair(cover.endpoints[u], cover.endpoints[v]) for u, v in rel
        }
        expected = {
            e for e in space.scale_pairs(j) if e[0] in component and e[1] in component
        }
        if image != expected:
            failures.append(
                {
                    "scale": j,
                    "missing": sorted(map(list, expected - image)),
                    "extra": sorted(map(list, image - expected)),
                }
            )
    witnesses = []
    for j, rel in rels.items():
        steps = ((u, cover.edges[u].get(y)) for u in range(cover.num_vertices)
                 for y in space.neighbors(j, cover.endpoints[u]))
        good = all(v is not None and (v == u or (min(u, v), max(u, v)) in rel)
                   for u, v in steps)
        witnesses.append(j if good else None)
    lifting_ok = None not in witnesses
    repeated = len(set(zip(cover.endpoints, cover.words))) < cover.num_vertices
    transverse = None if repeated else k
    generates = not failures
    verdict = "UCM" if generates and lifting_ok and transverse is not None else "NotUCM"
    return UcmReport(generates, tuple(failures), lifting_ok, tuple(witnesses),
                     transverse, verdict)


def assert_endpoint_ucm_matches_all_pairs_loops(space, k, base, radius=None, modulus=0):
    """The report read off the cover against the sweep it replaced, and the
    sweep's verdicts against the loops before it: every pair of points of
    the basepoint's component for generation, every vertex pair for equal
    endpoints and words, fhat rebuilt per use.  A nonzero modulus turns some
    word-problem Yes answers into Unknown (see _flaky_word_trivial)."""
    radius = len(space.points) + 2 if radius is None else radius
    with mock.patch.object(covers, "_word_trivial", _flaky_word_trivial(modulus)):
        cover = build_cover(space, k, base, radius)
    report = verify_endpoint_ucm(cover)
    assert report == old_verify_endpoint_ucm(cover)
    if cover.identification_incomplete or not cover.complete:
        assert report.verdict == "Inconclusive"
        return cover, report
    component = next(b for b in chain_components(space, k).blocks if base in b)
    generates = True
    for j in range(k, space.depth + 1):
        for a, b in itertools.combinations(component, 2):
            joined = any({cover.endpoints[u], cover.endpoints[v]} == {a, b}
                         for u, v in fhat(cover, j))
            if joined != space.related(j, a, b):
                generates = False
        if any(cover.endpoints[u] not in component for u, _ in fhat(cover, j)):
            generates = False
    witnesses = []
    for j in range(k, space.depth + 1):
        good = True
        for u in range(cover.num_vertices):
            for y in space.neighbors(j, cover.endpoints[u]):
                v = cover.edges[u].get(y)
                if v is None or (v != u and (min(u, v), max(u, v)) not in fhat(cover, j)):
                    good = False
        witnesses.append(j if good else None)
    transverse = k
    for u, v in fhat(cover, k):
        if cover.endpoints[u] == cover.endpoints[v] and u != v:
            transverse = None
    for u in range(cover.num_vertices):
        for v in range(u + 1, cover.num_vertices):
            if (cover.endpoints[u], cover.words[u]) == (cover.endpoints[v], cover.words[v]):
                transverse = None
    assert report.generates == generates
    assert report.lifting_witnesses == tuple(witnesses)
    assert report.chain_lifting == (None not in witnesses)
    assert report.transverse_scale == transverse
    ucm = report.generates and report.chain_lifting and transverse is not None
    assert report.verdict == ("UCM" if ucm else "NotUCM")
    return cover, report


@settings(max_examples=60, deadline=None)
@given(filtered_space(), st.integers(min_value=0, max_value=11),
       st.sampled_from((0, 0, 1, 2, 3)))
# complete covers at scale 2, and with every Yes forced to Unknown, complete
# covers whose identification is incomplete
@example(SWAPPED_LOOPS, 10, 0)
@example(SWAP_WORD, 6, 1)
def test_endpoint_ucm_matches_all_pairs_loops(space, radius, modulus):
    for k in range(1, space.depth + 1):
        for base in space.points:
            assert_endpoint_ucm_matches_all_pairs_loops(space, k, base, radius, modulus)


def test_rp2_endpoint_ucm_matches_all_pairs_loops(rp2_space):
    # two vertices over every point: the double cover
    cover, report = assert_endpoint_ucm_matches_all_pairs_loops(
        rp2_space, 1, rp2_space.points[0])
    assert (cover.num_vertices, report.verdict) == (2 * len(rp2_space.points), "UCM")


@pytest.mark.parametrize("n", range(6, 19))
def test_thickened_cycle_endpoint_ucm_matches_all_pairs_loops(n):
    # C_n at radii (n // 3, 1): for n = 3r scale 1 is simply connected, so its
    # cover is C_n itself; for other n, and at scale 2, the cover is the
    # line, which no radius budget completes
    space = from_metric([[min(abs(i - j), n - abs(i - j)) for j in range(n)]
                         for i in range(n)], (n // 3, 1))
    cover, report = assert_endpoint_ucm_matches_all_pairs_loops(space, 1, 0, n)
    if n % 3:
        assert report.verdict == "Inconclusive"
    else:
        assert (cover.num_vertices, report.verdict) == (n, "UCM")
    _, report = assert_endpoint_ucm_matches_all_pairs_loops(space, 2, 0, n)
    assert report.verdict == "Inconclusive"


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
                for x, y in full_relation(space, e)
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


def opened_tower(action):
    """action_tower_verify with its hypothesis gate opened, and the stage
    quotients.  The space is flagged Hausdorff and the diagnosis is stubbed,
    so the parts are reached on every draw, also where the orbit tower does
    not embed the space."""
    opened = dataclasses.replace(
        action, space=dataclasses.replace(action.space, hausdorff=True))
    diagnosis = mock.Mock()
    diagnosis.is_equicontinuous.return_value = True
    diagnosis.has_ss_bounded_orbits.return_value = True
    with mock.patch.object(actions, "diagnose_action", return_value=diagnosis):
        report = action_tower_verify(opened)
    quotients = [quotient_at_scale(opened, k) for k in range(1, opened.space.depth + 1)]
    return opened, report, quotients


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END_HAUSDORFF))
def test_action_tower_part_b_matches_all_pairs_loops(action):
    """Part (b) reads only the stage quotients; the gate is opened."""
    opened, report, quotients = opened_tower(action)
    expected = part_b_by_all_pairs(opened.space, quotients)
    assert {k: report.part_b[k] for k in expected} == expected


def old_scale_subgroup(action, pairs):
    """A relation's record as diagnose_action and quotient_at_scale each built
    it: the indices near each point index, of the elements moving some point
    near itself (in element order) those the earlier ones do not generate,
    the subgroup they generate, closed by the hand-written loop, and its
    orbits in order of their first points."""
    space, n = action.space, len(action.space.points)
    near = [{i} for i in range(n)]
    for a, b in pairs:
        i, j = space.index(a), space.index(b)
        near[i].add(j)
        near[j].add(i)
    seeds = []
    for g in action.elements:
        if any(g[i] in near[i] for i in range(n)) \
                and g not in _old_closure(seeds, n, len(action.elements)):
            seeds.append(g)
    seeds = tuple(seeds)
    sub = _old_closure(seeds, n, len(action.elements))
    orbits = [space.sort_points({space.points[g[i]] for g in sub}) for i in range(n)]
    return near, seeds, sub, tuple(o for i, o in enumerate(orbits) if o[0] == space.points[i])


@settings(max_examples=150, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END))
def test_scale_subgroup_records_match_old_computation(action):
    """Each scale and each saturated scale has one record, which the diagnosis
    and the scale quotients share; it must equal the neighbourhoods, seeds,
    subgroup and orbits their own call sites computed."""
    space = action.space
    for k in range(1, space.depth + 1):
        for pairs in (space.scale_pairs(k), saturate_invariant(action, k)):
            record = actions._scale_subgroup(action, pairs)
            assert (record.near, record.seeds, record.subgroup, record.orbits.blocks) \
                == old_scale_subgroup(action, pairs)
        assert quotient_at_scale(action, k).subgroup is record.subgroup


def ss_bounded_orbits_by_point(action):
    """diagnose_action's bounded-orbits loop as it was: the orbit of each
    point rebuilt from the subgroup's elements for every (e, f, point)."""
    space, m = action.space, action.space.depth

    def orbit(elements, point):
        i = space.index(point)
        return space.sort_points({space.points[g[i]] for g in elements})

    subgroups = {f: old_scale_subgroup(action, space.scale_pairs(f))[2]
                 for f in range(1, m + 1)}
    ssbo = {"witnesses": {}, "counterexamples": {}}
    for e in range(1, m + 1):
        found = None
        last = None
        for f in range(1, m + 1):
            bad = None
            for p in space.points:
                orb = orbit(subgroups[f], p)
                for a in orb:
                    for b in orb:
                        if not space.related(e, a, b):
                            bad = {"scale_f": f, "orbit_of": p, "pair": [a, b]}
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad is None:
                found = f
                break
            last = bad
        ssbo["witnesses"][e] = found
        if found is None:
            ssbo["counterexamples"][e] = last
    return ssbo


def part_c_by_point(action, quotients):
    """action_tower_verify's part (c) as it was: every stage class rebuilt
    from all group elements, and one sorted thread list per point."""
    space, n = action.space, len(quotients)

    def stage_class(i, block):
        q = quotients[i]
        members = {q.projection(action.apply(g, block[0])) for g in action.elements}
        return q.space.sort_points(members)

    def containing_block(i, finer_block):
        return quotients[i].projection(finer_block[0])

    well_defined = True
    a_threads = set()
    witnesses_ok = True
    for top in quotients[-1].space.points:
        thread = [None] * n
        thread[n - 1] = stage_class(n - 1, top)
        block = top
        for i in range(n - 2, -1, -1):
            images = {stage_class(i, containing_block(i, member)) for member in thread[i + 1]}
            if len(images) != 1:
                well_defined = False
            block = containing_block(i, block)
            thread[i] = stage_class(i, block)
            if images != {thread[i]}:
                well_defined = False
        a_threads.add(tuple(thread))
        s = [cls_blocks[0] for cls_blocks in thread]
        gs = []
        for i in range(n - 1):
            target = containing_block(i, s[i + 1])
            chosen = None
            for g in action.elements:
                if quotients[i].projection(action.apply(g, s[i][0])) == target:
                    chosen = g
                    break
            if chosen is None:
                break
            gs.append(chosen)
        if len(gs) < n - 1:
            witnesses_ok = False
            continue
        hs = telescoping_backward_group(
            [lambda g: g] * (n - 1), gs, [action.identity] * n,
            lambda stage, a, b: actions._compose(a, b),
        )
        adjusted = [quotients[i].projection(action.apply(hs[i], s[i][0])) for i in range(n)]
        for i in range(n - 1):
            if containing_block(i, adjusted[i + 1]) != adjusted[i]:
                witnesses_ok = False
        for i in range(n):
            if stage_class(i, adjusted[i]) != thread[i]:
                witnesses_ok = False

    space_threads = {
        tuple(q.projection(top[0]) for q in quotients) for top in quotients[-1].space.points
    }
    limit_quotient_classes = {
        tuple(stage_class(i, st[i]) for i in range(n)) for st in space_threads
    }
    orbit_count = len({
        tuple(sorted(
            tuple(quotients[i].projection(action.apply(g, x)) for i in range(n))
            for g in action.elements
        ))
        for x in space.points
    })
    return {
        "well_defined": well_defined,
        "bijective": limit_quotient_classes == a_threads and orbit_count == len(a_threads),
        "telescoping_threads": witnesses_ok,
    }


# Rotation by 2 on C6 with a discrete finest scale: each G-orbit holds three
# finest-stage blocks, so a stage class read off one stage's orbits is too small.
ROTATED_HEXAGON = (
    from_metric([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)],
                (2, 1, 0)),
    ([2, 3, 4, 5, 0, 1],),
)


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END))
@example(close_group(*SWAPPED_END_HAUSDORFF))
@example(close_group(*ROTATED_HEXAGON))
def test_orbit_partitions_match_per_point_orbits(action):
    """Bounded orbits and part (c) read one orbit partition per group; the
    per-point definitions they replaced must agree, on non-isometric actions
    too.  Part (c) is reached on every draw by opening the hypothesis gate."""
    assert diagnose_action(action).ss_bounded_orbits == ss_bounded_orbits_by_point(action)
    opened, report, quotients = opened_tower(action)
    assert report.part_c == part_c_by_point(opened, quotients)


def quotient_fields_by_all_pairs(action, q):
    """quotient_at_scale's normality and stabilizer scans as they were: the
    subgroup is normal when g s g^-1 lies in it for every (g, s) in G x N, and
    the stabilizer of the orbits holds every g that sends the first point of
    each orbit into that orbit."""
    compose, inverse = actions._compose, actions._inverse
    sub = set(q.subgroup)
    stabilizer = tuple(sorted(
        g for g in action.elements
        if all(q.projection(action.apply(g, b[0])) == b for b in q.space.points)
    ))
    return {
        "normal": all(compose(compose(g, s), inverse(g)) in sub
                      for g in action.elements for s in q.subgroup),
        "stabilizer_is_subgroup": stabilizer == q.subgroup,
    }


def coset_index(q):
    """Each element's position in the coset list of the stage quotient q."""
    return {g: i for i, coset in enumerate(q.cosets) for g in coset}


def homomorphism_by_all_pairs(action, quotients):
    """Part (a)'s homomorphism check as it was: for every (g, h) in G x G, the
    stage cosets of gh are those of the product of the coset representatives."""
    compose = actions._compose
    index = [coset_index(q) for q in quotients]
    thread_of = {g: tuple(ix[g] for ix in index) for g in action.elements}
    return all(
        thread_of[compose(g, h)] == tuple(
            index[i][compose(q.cosets[thread_of[g][i]][0], q.cosets[thread_of[h][i]][0])]
            for i, q in enumerate(quotients)
        )
        for g in action.elements
        for h in action.elements
    )


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END))
@example(close_group(*SWAPPED_END_HAUSDORFF))
@example(close_group(*ROTATED_HEXAGON))
def test_action_quotients_match_all_pairs_definitions(action):
    """Normality, the stabilizer identity and part (a) are read off how the
    stage subgroups are built; the all-pairs scans they replaced must agree.
    Part (a) is reached on every draw by opening the hypothesis gate."""
    opened, report, quotients = opened_tower(action)
    for q in quotients:
        fields = {"normal": q.normal, "stabilizer_is_subgroup": q.stabilizer_is_subgroup}
        assert fields == quotient_fields_by_all_pairs(opened, q)
    assert report.part_a["homomorphism"] == homomorphism_by_all_pairs(opened, quotients)


def saturate_by_every_element(space, elements, k):
    """_saturate as it was: every scale-k pair mapped by every element."""
    pts, index = space.points, space.index
    return frozenset(
        space.pair(pts[g[index(a)]], pts[g[index(b)]])
        for g in elements
        for a, b in space.scale_pairs(k)
    )


# Two transpositions on a four-point line: the closure of the pair (0, 1)
# reaches (0, 3) only through the second generator.
SWAPS_ON_LINE = (
    FilteredSpace((0, 1, 2, 3), (frozenset({(0, 1)}),)),
    ([0, 2, 1, 3], [0, 1, 3, 2]),
)


@settings(max_examples=150, deadline=None)
@given(random_action())
@example(close_group(*SWAPS_ON_LINE))
@example(close_group(*SWAPPED_END))
def test_saturation_by_generators_matches_every_element_scan(action):
    """A scale closed under a generating set is its image under every element:
    for G with its generators, and for each scale subgroup with the elements
    moving a point within that scale, the generators diagnose_action passes."""
    space, m = action.space, action.space.depth
    for k in range(1, m + 1):
        assert saturate_invariant(action, k) == saturate_by_every_element(
            space, action.elements, k)
    for f in range(1, m + 1):
        _, seed, sub, _ = old_scale_subgroup(action, space.scale_pairs(f))
        for k in range(1, m + 1):
            assert actions._saturate(space, seed, k) == saturate_by_every_element(
                space, sub, k)


def tower_fields_as_computed(action, quotients):
    """The fields quotient_at_scale and action_tower_verify read off the
    construction, computed as they were: each coset's induced permutation from
    all its members (None where they disagree), the group and space thread
    sets, the forward witness tables and the coset-tower bondings."""
    induced = []
    for q in quotients:
        qindex = {b: i for i, b in enumerate(q.space.points)}
        per_coset = []
        for coset in q.cosets:
            images = {b: {q.projection(action.apply(g, p)) for g in coset for p in b}
                      for b in q.space.points}
            per_coset.append(
                None if any(len(v) != 1 for v in images.values())
                else tuple(qindex[next(iter(images[b]))] for b in q.space.points))
        induced.append(tuple(per_coset))
    index = [coset_index(q) for q in quotients]
    thread_of = {g: tuple(ix[g] for ix in index) for g in action.elements}
    group_threads = {
        tuple(ix[top[0]] for ix in index) for top in quotients[-1].cosets}
    space_thread = {x: tuple(q.projection(x) for q in quotients) for x in action.space.points}
    space_threads = {
        tuple(q.projection(top[0]) for q in quotients) for top in quotients[-1].space.points}
    bondings = [tuple(coarse[c[0]] for c in fine.cosets)
                for fine, coarse in zip(quotients[1:], index[:-1])]
    return {
        "induced": induced,
        "a_injective": len(set(thread_of.values())) == len(action.elements),
        "a_surjective": set(thread_of.values()) == group_threads,
        "b_injective": len(set(space_thread.values())) == len(action.space.points),
        "b_surjective": set(space_thread.values()) == space_threads,
        "entourage_forward": all(q.projection.is_uniformly_continuous() for q in quotients),
        "part_d": all(set(b) == set(range(len(coarse.cosets)))
                      for b, coarse in zip(bondings, quotients[:-1])),
    }


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(close_group(*SWAPPED_END_HAUSDORFF))
@example(close_group(*ROTATED_HEXAGON))
@example(close_group(*SWAPS_ON_LINE))
def test_action_tower_constants_match_old_computations(action):
    """Each coset's induced permutation is read off its first element, the two
    injectivity fields off the finest stage, and surjectivity onto threads,
    the forward entourage test and part (d) off the normal, nested stages; the
    computations they replaced must agree.  The hypothesis gate is opened."""
    opened, report, quotients = opened_tower(action)
    assert tower_fields_as_computed(opened, quotients) == {
        "induced": [q.induced_elements for q in quotients],
        "a_injective": report.part_a["injective"],
        "a_surjective": report.part_a["surjective_onto_threads"],
        "b_injective": report.part_b["injective"],
        "b_surjective": report.part_b["surjective_onto_threads"],
        "entourage_forward": report.part_b["entourage_forward"],
        "part_d": report.part_d["all_surjective"],
    }


def test_unnested_scales_stop_the_action_tower():
    """A 4-cycle whose scale 1 holds only the diagonal pair (0, 2) and whose
    scale 2 holds only the edge (0, 1): under the rotation r its scale-1
    subgroup would be {e, r^2} but its scale-2 subgroup the whole group, so
    the stage subgroups the tower's fields rely on would not nest.  Such a
    space is never built."""
    with pytest.raises(NotNested) as exc:
        FilteredSpace((0, 1, 2, 3),
                      (frozenset({(0, 2)}), frozenset({(0, 1)}), frozenset()),
                      hausdorff=True)
    assert str(exc.value) == "scale 2 is not contained in scale 1 (extra pair (0, 1))"


# ---------------------------------------------------------------------------
# nesting checked once, on construction, against the checks it replaced


def old_nesting_failure(points, scales):
    """validate_space's nesting loop as it was: the first scale k whose
    successor holds a pair outside it, and the first such pair in point order."""
    index = {p: i for i, p in enumerate(points)}
    for k in range(len(scales) - 1):
        extra = scales[k + 1] - scales[k]
        if extra:
            return k + 1, sorted(extra, key=lambda ab: (index[ab[0]], index[ab[1]]))[0]
    return None


@st.composite
def scale_list(draw):
    """Points in a random order and up to four scales of normalized pairs,
    each drawn from the one before when the draw is nested, else from all."""
    n = draw(st.integers(min_value=1, max_value=6))
    points = tuple(draw(st.permutations(range(n))))
    every = list(itertools.combinations(points, 2))  # normalized: in point order
    nested = draw(st.booleans())
    scales = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pool = sorted(scales[-1], key=every.index) if nested and scales else every
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        scales.append(frozenset(itertools.compress(pool, keep)))
    return points, tuple(scales)


@settings(max_examples=300, deadline=None)
@given(scale_list())
def test_spaces_are_nested_exactly_when_validation_said_so(drawn):
    """FilteredSpace raises NotNested exactly when validate_space's old loop
    did, with its scale and pair; validate_space, which now leaves nesting to
    FilteredSpace, raises the same."""
    points, scales = drawn
    failure = old_nesting_failure(points, scales)
    listed = [[(p, p) for p in points] + [ab for a, b in pairs for ab in ((a, b), (b, a))]
              for pairs in scales]
    if failure is None:
        assert FilteredSpace(points, scales).scales == scales
        assert validate_space(points, listed).scales == scales
        return
    for build in (lambda: FilteredSpace(points, scales), lambda: validate_space(points, listed)):
        with pytest.raises(NotNested) as exc:
            build()
        assert (exc.value.scale, exc.value.pair) == failure


# ---------------------------------------------------------------------------
# the fiber-quotient reconstruction against the tower it no longer builds


def old_quotient_tower_reconstruct(f):
    """quotient_tower_reconstruct as it was when it built the tower: bondings
    between the fiber quotients over the strong basis, the SpaceTower, its
    limit and the comparison map, whose four fields were computed."""
    gucm = verify_gucm(f)
    strong = check_approx_uniqueness(f, strong=True)
    hypotheses = {
        "gucm": gucm.passed,
        "strong_approx_uniqueness": strong.passed,
        "source_hausdorff": f.source.hausdorff,
    }
    if not (gucm.passed and strong.passed):
        failing = [k for k, v in hypotheses.items() if not v and k != "source_hausdorff"]
        return ReconstructionReport(hypotheses, (), (), None, None, None, None,
                                    "HypothesisUnmet:" + ",".join(failing))
    basis = tuple(
        j for j in range(1, f.source.depth + 1)
        if _uniqueness_condition(f, j, j) is None
    )
    quotients = [build_fiber_quotient(f, j) for j in basis]
    spaces = tuple(q.space for q in quotients)
    bondings = []
    for prev, nxt in zip(quotients, quotients[1:]):
        assignment = []
        for block in nxt.space.points:
            containers = {prev.q(member) for member in block}
            if len(containers) != 1:
                return ReconstructionReport(hypotheses, basis, (), None, None, None,
                                            None, "discrepancy:block_not_nested")
            assignment.append(containers.pop())
        bondings.append(FilteredMap(nxt.space, prev.space, tuple(assignment)))
    tower = SpaceTower(spaces, tuple(bondings))
    limit = assemble_limit_space(tower)
    q = FilteredMap(
        f.source,
        limit.space,
        tuple(tuple(quot.q(x) for quot in quotients) for x in f.source.points),
    )
    injective = len(set(q.assignment)) == len(q.assignment)
    uc = q.is_uniformly_continuous()
    embedding = all(w is not None for w in q.pullback_witnesses)
    surjective = set(q.assignment) == set(limit.space.points)
    ok = injective and uc and embedding and surjective
    return ReconstructionReport(
        hypotheses, basis, tuple(len(sp.points) for sp in spaces),
        injective, uc, embedding, surjective,
        "verified" if ok else "discrepancy",
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([relabel_map, double_cover_map, cyclic_cover_map, raw_random_map]),
       st.randoms(use_true_random=False), st.booleans())
def test_reconstruction_of_acceptance_maps_matches_the_tower(family, rng, hausdorff):
    f = family(rng, hausdorff=hausdorff)
    assert quotient_tower_reconstruct(f) == old_quotient_tower_reconstruct(f)


@st.composite
def random_map_maybe_hausdorff(draw):
    """random_map, with an empty finest scale added to both spaces or not."""
    f = draw(random_map())
    if not draw(st.booleans()):
        return f

    def discrete_below(space):
        return FilteredSpace(space.points, space.scales + (frozenset(),), hausdorff=True)

    return FilteredMap(discrete_below(f.source), discrete_below(f.target), f.assignment)


# Two points related only at the coarser scale, over one point: the strong
# basis is (1, 2), and only the coarser fiber quotient glues the points, so
# injectivity and the embedding hold at the finest stage and fail at scale 1.
GLUED_AT_SCALE_1 = FilteredMap(
    FilteredSpace((0, 1), (frozenset({(0, 1)}), frozenset()), hausdorff=True),
    FilteredSpace(("p",), (frozenset(),), hausdorff=True),
    ("p", "p"),
)


@settings(max_examples=300, deadline=None)
@given(random_map_maybe_hausdorff())
@example(GLUED_AT_SCALE_1)
@example(CONSTANT_ON_PATH)
def test_reconstruction_of_random_maps_matches_the_tower(f):
    assert quotient_tower_reconstruct(f) == old_quotient_tower_reconstruct(f)


# ---------------------------------------------------------------------------
# canonical serialization


def _reference_to_jsonable(obj):
    """formats.to_jsonable as it was before its type-dispatched rewrite."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _reference_to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {
            (",".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                _reference_to_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (frozenset, set)):
        converted = [_reference_to_jsonable(v) for v in obj]
        return sorted(converted, key=lambda v: json.dumps(v, sort_keys=True, default=str))
    if isinstance(obj, (list, tuple)):
        return [_reference_to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
@example({"b": [], "a": {}, "é\x00\u2028\U0001f600": [True, False, None, -0.0, 1e300]})
@example([[], {}, [[]], [{}], 5e-324, 2 ** 70, "\\\"\x7f"])
def test_writer_matches_json_dumps(tree):
    """The writer's bytes equal the reference writer's: the indent-2 text of
    json.dumps with each array of scalars on one line."""
    assert formats.canonical_dumps(tree) == reference_dumps(tree)


@dataclasses.dataclass(frozen=True)
class _Verdict:
    """Result-like: field order is not sorted order, one field is private."""
    zeta: object
    alpha: object
    _memo: object = "private"


_Row = collections.namedtuple("_Row", "left right")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Label(str):
    pass


_LEAVES = (st.integers(-3, 3) | st.text(max_size=3) | st.booleans() | st.none()
           | st.floats(allow_nan=False, allow_infinity=False, width=16)
           | st.sampled_from(_Level) | st.builds(_Label, st.text(max_size=3))
           | st.tuples(st.integers(-3, 3), st.text(max_size=2))
           | st.builds(fractions.Fraction, st.integers(-5, 5), st.integers(1, 5)))
_KEYS = (st.text(max_size=3) | st.integers(-3, 3) | st.booleans()
         | st.tuples(st.integers(0, 3), st.text(max_size=2)))


@st.composite
def result_values(draw, depth=3, hashable=False):
    """Result-like values; hashable ones only where a set holds them."""
    if depth == 0 or draw(st.booleans()):
        return draw(_LEAVES)

    def inner(hashable=False):
        return result_values(depth - 1, hashable)

    options = [st.tuples(inner(True), inner(True)), st.frozensets(inner(True), max_size=4),
               st.builds(_Verdict, inner(hashable), inner(hashable), inner(hashable))]
    if not hashable:
        options += [st.lists(inner(), max_size=4), st.dictionaries(_KEYS, inner(), max_size=4),
                    st.sets(inner(True), max_size=4), st.builds(_Row, inner(), inner())]
    return draw(st.one_of(options))


@settings(max_examples=100, deadline=None)
@given(result_values())
@example(frozenset({(1, "b"), (0, "a"), ("x", 2), "é", "z", 3}))
@example({(1, 2): {frozenset({frozenset({1}), frozenset()})}, 3: _Verdict([], {}),
          True: fractions.Fraction(1, 3)})
def test_to_jsonable_matches_reference(value):
    """Equal as Python values and as types, order included (repr tells
    True from 1 and a key order from another), and written as the
    reference writer writes the reference conversion, subclasses of int and
    str included."""
    expected = _reference_to_jsonable(value)
    assert repr(formats.to_jsonable(value)) == repr(expected)
    assert formats.canonical_dumps(value) == reference_dumps(expected)


# ---------------------------------------------------------------------------
# chain searches on spaces.breadth_first against the loops they replaced


def _old_chain_components(space, k):
    seen = set()
    blocks = []
    for start in space.points:
        if start in seen:
            continue
        block = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for q in space.neighbors(k, p):
                    if q not in seen:
                        seen.add(q)
                        block.append(q)
                        nxt.append(q)
            frontier = nxt
        blocks.append(space.sort_points(block))
    return Partition(tuple(blocks))


def _old_fiber_e_components(f, k):
    blocks = []
    for y in f.target.points:
        fiber = [x for x in f.source.points if f(x) == y]
        if fiber:
            blocks.extend(_old_chain_components(subspace(f.source, fiber), k).blocks)
    order = {p: i for i, p in enumerate(f.source.points)}
    blocks.sort(key=lambda b: order[b[0]])
    return Partition(tuple(blocks))


def _old_presentation(space, k, basepoint):
    roots = space.points if basepoint is None else (basepoint,)
    tree = set()
    parent = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        frontier = [root]
        while frontier:
            nxt = []
            for p in frontier:
                for q in space.neighbors(k, p):
                    if q not in parent:
                        parent[q] = p
                        tree.add(space.pair(p, q))
                        nxt.append(q)
            frontier = nxt
    generators = tuple(e for e in space.sorted_pairs(k) if e[0] in parent and e not in tree)
    gen_index = {e: i + 1 for i, e in enumerate(generators)}

    def letter(u, v):
        pair = space.pair(u, v)
        if pair in tree:
            return None
        g = gen_index[pair]
        return g if pair == (u, v) else -g

    relators = []
    for a, b, c in rips.rips_2_skeleton(space, k).triangles:
        if a in parent:
            word = [letter(u, v) for u, v in ((a, b), (b, c), (c, a))]
            relators.append(rips.free_reduce([x for x in word if x is not None]))
    return rips.GroupPresentation(
        space, k, basepoint, space.sort_points(parent),
        tuple(sorted(tree, key=lambda e: (space.index(e[0]), space.index(e[1])))),
        generators, tuple(relators), parent,
    )


def _old_uniqueness_condition(f, e, j, strong):
    close_scale = j if strong else e
    parents = {}
    queue = []
    for p in f.source.points:
        parents[(p, p)] = None
        queue.append((p, p))
    pos = 0
    while pos < len(queue):
        a, b = queue[pos]
        pos += 1
        for a2 in (a,) + f.source.neighbors(j, a):
            for b2 in (b,) + f.source.neighbors(j, b):
                if f(a2) != f(b2):
                    continue
                key = (a2, b2)
                if key in parents:
                    continue
                parents[key] = (a, b)
                if not f.source.related(close_scale, a2, b2):
                    left, right = [a2], [b2]
                    cur = (a, b)
                    while cur is not None:
                        left.append(cur[0])
                        right.append(cur[1])
                        cur = parents[cur]
                    left.reverse()
                    right.reverse()
                    return (left, right)
                queue.append(key)
    return None


def _old_closure(gens, n, bound):
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                prod = actions._compose(g, h)
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
                    if len(elements) > bound:
                        raise actions.GroupTooLarge(f"closure exceeded {bound} elements")
        frontier = nxt
    return tuple(sorted(elements))


def _presentation_fields(pres):
    return (pres.component, pres.tree_edges, pres.generators, pres.relators,
            list(pres.parent.items()))


# On CONSTANT_ON_PATH the pair search from the whole diagonal reaches the
# far pair (0, 2) in one step from (1, 1); a search seeded with (0, 0) alone
# reaches it through (0, 1), so its counterexample chains differ.
@settings(max_examples=150, deadline=None)
@given(random_map())
@example(CONSTANT_ON_PATH)
def test_chain_searches_match_hand_written_loops(f):
    """Components, fiber components, presentations (every basepoint and the
    whole space, parents in discovery order) and the uniqueness fixpoint's
    exact counterexample chains, for every scale pair and both modes."""
    source = f.source
    for k in range(1, source.depth + 1):
        assert chain_components(source, k) == _old_chain_components(source, k)
        assert fiber_e_components(f, k) == _old_fiber_e_components(f, k)
        for base in (None,) + source.points:
            assert _presentation_fields(rips.presentation_at_scale(source, k, base)) \
                == _presentation_fields(_old_presentation(source, k, base))
        for e in range(1, source.depth + 1):
            for strong in (False, True):
                assert _uniqueness_condition(f, k, k if strong else e) \
                    == _old_uniqueness_condition(f, e, k, strong)


def _closure_outcome(closure, gens, n, bound):
    try:
        return closure(gens, n, bound)
    except actions.GroupTooLarge as exc:
        return ("GroupTooLarge", str(exc))


def _closure_elements(gens, n, bound):
    return actions._closure(gens, n, bound)[0]


@st.composite
def permutation_generators(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return n, draw(st.lists(st.permutations(range(n)).map(tuple), max_size=3))


@settings(max_examples=150, deadline=None)
@given(permutation_generators())
@example((1, []))
@example((3, [(0, 1, 2)]))
def test_group_closure_matches_hand_written_loop(drawn):
    """Elements, or GroupTooLarge, at bounds around the group order, and
    GroupTooLarge at bound 0 even for the trivial group, whose identity is
    one element more than 0 (the hand-written loop counted only new ones)."""
    n, gens = drawn
    order = len(_old_closure(gens, n, math.factorial(n)))
    for bound in range(max(1, order - 2), order + 2):
        assert _closure_outcome(_closure_elements, gens, n, bound) \
            == _closure_outcome(_old_closure, gens, n, bound)
    assert _closure_outcome(_closure_elements, gens, n, 0) \
        == ("GroupTooLarge", "closure exceeded 0 elements")


def _old_orbits(space, elements):
    """The orbits as the scan over all of a group's elements found them."""
    pts = space.points
    seen = set()
    orbits = []
    for i in range(len(pts)):
        if i not in seen:
            orbit = sorted({g[i] for g in elements})
            seen.update(orbit)
            orbits.append(tuple(pts[j] for j in orbit))
    return tuple(orbits)


def _old_cosets(elements, sub):
    """The cosets g.sub as the loop over all elements found them, sorted."""
    cosets = []
    assigned = set()
    for g in elements:
        if g in assigned:
            continue
        coset = tuple(sorted(actions._compose(g, s) for s in sub))
        assigned.update(coset)
        cosets.append(coset)
    return tuple(sorted(cosets))


def _path_symmetric_group(n, generators):
    """The symmetric group on the path 0 - 1 - ... - n-1 (discrete at scale 2),
    given by generators that repeat, compose or equal one another."""
    path = frozenset((i, i + 1) for i in range(n - 1))
    return close_group(FilteredSpace(tuple(range(n)), (path, frozenset()), hausdorff=True),
                       generators)


# S4 and S5 from a transposition and an n-cycle, with the identity, repeats
# and products of those mixed in
S4_REDUNDANT = _path_symmetric_group(4, [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0),
                                         (2, 3, 0, 1), (0, 2, 1, 3)])
S5_REDUNDANT = _path_symmetric_group(5, [(1, 2, 3, 4, 0), (2, 3, 4, 0, 1), (0, 1, 2, 3, 4),
                                         (1, 0, 2, 3, 4), (3, 4, 0, 1, 2), (0, 1, 3, 2, 4)])


@settings(max_examples=100, deadline=None)
@given(random_action())
@example(S4_REDUNDANT)
@example(S5_REDUNDANT)
def test_component_searches_match_element_lists(action):
    """Groups closed over the seeds that enlarge them, and orbits and cosets
    from the one component search over those seeds, against the element-list
    code: the closure over every seed, the orbit scan over every element and
    the coset loop over every element with its sort.  The kept seeds
    regenerate their group, at most log2 of its order of them; cosets are
    also checked for cyclic subgroups, which need not be normal."""
    space, n, order = action.space, len(action.space.points), len(action.elements)
    elements, kept = actions._closure(action.generators, n, order)
    assert elements == action.elements == _old_closure(action.generators, n, order)
    assert actions._orbits(space, action.generators).blocks \
        == _old_orbits(space, action.elements)
    groups = [(kept, elements)]
    for k in range(1, space.depth + 1):
        for pairs in (space.scale_pairs(k), saturate_invariant(action, k)):
            record = actions._scale_subgroup(action, pairs)
            moving = [g for g in action.elements
                      if any(g[i] in record.near[i] for i in range(n))]
            assert record.subgroup == _old_closure(moving, n, order)
            assert record.orbits.blocks == _old_orbits(space, record.subgroup)
            groups.append((record.seeds, record.subgroup))
        quotient = quotient_at_scale(action, k)
        assert quotient.cosets == _old_cosets(action.elements, quotient.subgroup)
    for seeds, group in groups:
        assert _old_closure(seeds, n, order) == group
        assert 2 ** len(seeds) <= len(group)
    for g in set(action.generators) | set(kept):
        assert actions._cosets(action.elements, (g,)) \
            == _old_cosets(action.elements, _old_closure([g], n, order))


# The ASCII decimal grammar, written out independently of parse_number.
_ASCII_DECIMAL = re.compile(r"[ \t]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[ \t]*")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-.eE \t_\n١ ", max_size=8))
@example("1_0")
@example("١")
@example(" -1.5e+3\t")
@example("1e999")
def test_parse_number_reads_the_ascii_decimal_grammar(text):
    match = _ASCII_DECIMAL.fullmatch(text)
    try:
        value = formats.parse_number(text)
    except formats.ParseError as exc:
        assert match is None or "is not finite" in str(exc)
        return
    assert match is not None
    assert type(value) is (float if "." in text or "e" in text.lower() else int)
    assert value == float(text)


# ---------------------------------------------------------------------------
# the factorization's scale and the lim1 verdict against the rules they replace


def _finest_first_scale(f, e):
    """The scale search factor_and_verify ran: the finest j >= e at which the
    strong uniqueness condition holds, or None."""
    for j in range(f.source.depth, e - 1, -1):
        if _uniqueness_condition(f, j, j) is None:
            return j
    return None


WRAP_16_8 = FilteredMap(
    from_metric([[min(abs(i - j), 16 - abs(i - j)) for j in range(16)] for i in range(16)], (2, 1)),
    from_metric([[min(abs(i - j), 8 - abs(i - j)) for j in range(8)] for i in range(8)], (2, 1)),
    tuple(i % 8 for i in range(16)),
)


@settings(max_examples=300, deadline=None)
@given(random_map())
@example(WRAP_16_8)
def test_factorization_scale_matches_finest_first_search(f):
    """Once the preconditions hold, the search would have chosen the finest
    scale at every e, and no e leaves it without a scale."""
    report = factor_and_verify(f)
    for e in range(1, f.source.depth + 1):
        if report.verdict == "preconditions_failed":
            assert report.chosen_scale is None
        else:
            assert report.chosen_scale == _finest_first_scale(f, e) == f.source.depth


# ---------------------------------------------------------------------------
# the fields the factorization, strong ML and limit action now write, against
# the computations they replace


def old_factorization_fields(f, report):
    """(fibers_bounded, g_generates, transverse_scale) as factor_and_verify
    computed them: block containment, the generation check run on g, and a
    scan of the quotient's pairs at the chosen scale."""
    quotient, chosen = report.quotient, report.chosen_scale
    bounded = all(f.source.closed(chosen, a).issuperset(block)
                  for block in quotient.blocks.blocks for a in block)
    transverse = chosen if all(u == v for u, v in quotient.space.scale_pairs(chosen)
                               if quotient.g(u) == quotient.g(v)) else None
    return bounded, check_generates(quotient.g), transverse


def acceptance_example(family, seed, hausdorff=False):
    return family(random.Random(seed), hausdorff=hausdorff)


@settings(max_examples=300, deadline=None)
@given(random_map()
       | st.builds(acceptance_example,
                   st.sampled_from([relabel_map, double_cover_map, cyclic_cover_map,
                                    raw_random_map]),
                   st.integers(0, 10 ** 6), st.booleans()))
@example(WRAP_16_8)
@example(acceptance_example(relabel_map, 1))
@example(acceptance_example(double_cover_map, 2))
@example(acceptance_example(double_cover_map, 3, hausdorff=True))
@example(acceptance_example(cyclic_cover_map, 4))
@example(acceptance_example(cyclic_cover_map, 5, hausdorff=True))
def test_factorization_fields_match_old_computations(f):
    report = factor_and_verify(f)
    if report.verdict == "preconditions_failed":
        assert report.quotient is report.fibers_bounded is report.g_generates is None
        assert report.transverse_scale is None
        return
    bounded, generation, transverse = old_factorization_fields(f, report)
    assert report.fibers_bounded == bounded
    assert report.g_generates == generation
    assert report.transverse_scale == transverse
    # the induced map lifts chains whenever the preconditions hold
    assert report.g_chain_lifting.passed
    assert report.quotient.q_chain_lifting == check_chain_lifting(report.quotient.q)
    ucm = bounded and generation.passed and report.g_chain_lifting.passed \
        and transverse is not None
    assert ucm and report.verdict == "UCM"


def old_strong_ml_check(tower):
    """strong_ml_check as it was: witnesses against the assembled limit's
    projections, with the equality re-checked on each."""
    limit = assemble_limit_space(tower)
    entries = []
    ok = True
    for alpha in range(1, tower.length + 1):
        projected = {t[alpha - 1] for t in limit.space.points}
        witness = None
        equal = None
        for beta in range(alpha, tower.length + 1):
            image = set(tower.composite(beta, alpha).values())
            if image <= projected:
                witness = beta
                equal = image == projected
                break
        entries.append({"index": alpha, "witness": witness, "image_equals_projection": equal})
        ok = ok and witness is not None and equal
    return StrongMlReport(tuple(entries), ok)


# a <- ab <- a: the middle stage's image {a, b} is too big, so index 2 has
# witness 3
_A = FilteredSpace(("a",), (frozenset(),), hausdorff=True)
_AB = FilteredSpace(("a", "b"), (frozenset(),), hausdorff=True)
DETOUR_TOWER = SpaceTower((_A, _AB, _A),
                          (FilteredMap(_AB, _A, ("a", "a")), FilteredMap(_A, _AB, ("a",))))


@settings(max_examples=300, deadline=None)
@given(random_space_tower())
@example(DETOUR_TOWER)
def test_strong_ml_matches_old_check(tower):
    assert strong_ml_check(tower) == old_strong_ml_check(tower)


@st.composite
def abelian_endomorphism(draw):
    """A group Z^r + torsion of dimension 1 to 3 and a matrix of an
    endomorphism of it: torsion columns vanish on free rows, and on a torsion
    row they are multiples of what keeps the relation."""
    torsion = []
    if draw(st.booleans()):
        torsion.append(draw(st.sampled_from([2, 3, 4, 6])))
        if draw(st.booleans()):
            torsion.append(torsion[0] * draw(st.integers(min_value=1, max_value=3)))
    rank = draw(st.integers(min_value=0 if torsion else 1, max_value=3 - len(torsion)))
    relations = torsion + [0] * rank
    matrix = []
    for db in relations:
        row = []
        for a, da in enumerate(relations):
            x = draw(st.integers(min_value=-3, max_value=3))
            if a < len(torsion):
                x = x * (db // math.gcd(db, da)) if db else 0
            row.append(x)
        matrix.append(row)
    return AbelianGroupInv(rank, tuple(torsion)), matrix


def _first_repeated_power(matrix, relations, horizon):
    """The first t <= horizon with M^t Z^r + R = M^(t-1) Z^r + R, comparing
    sympy's Hermite forms of the lattices; None when there is none."""
    m, extra = sympy.Matrix(matrix), sympy.diag(*relations)
    power = sympy.eye(len(relations))
    previous = sympy_hnf(power.row_join(extra))
    for t in range(1, horizon + 1):
        power = m * power
        form = sympy_hnf(power.row_join(extra))
        if form == previous:
            return t
        previous = form
    return None


# the powers lim1_verdict compares, as its reports record them
LIM1_HORIZON = 64


@settings(max_examples=200, deadline=None)
@given(abelian_endomorphism())
@example((AbelianGroupInv(0, (4,)), [[2]]))
@example((AbelianGroupInv(2, ()), [[0, 1], [0, 0]]))
@example((AbelianGroupInv(1, (2,)), [[1, 1], [0, 2]]))
@example((AbelianGroupInv(1, ()), [[2]]))
def test_lim1_matches_hermite_lattice_rule(drawn):
    """A repeated bonding is surjective when the first image lattice is
    everything, certifies Mittag-Leffler at the first power whose lattice
    repeats, and is undetermined when none does up to the horizon."""
    group, matrix = drawn
    t = _first_repeated_power(matrix, list(group.torsion) + [0] * group.rank, LIM1_HORIZON)
    verdict = lim1_verdict(TowerAb((group, group), (matrix,), "pattern_repeats"))
    if t == 1:
        assert (verdict.trivial, verdict.certificate) == (True, "surjectivity")
    elif t is not None:
        assert (verdict.trivial, verdict.certificate) == (True, "mittag_leffler")
        assert verdict.detail == {"stabilized_at_power": t}
    else:
        assert not verdict.trivial
        assert verdict.detail == {"first_unstable_index": 2, "horizon": LIM1_HORIZON}


# ---------------------------------------------------------------------------
# the writer on shared and mutated dataclass instances


def _reference_dumps(value):
    return reference_dumps(_reference_to_jsonable(value))


def test_shared_instance_written_at_every_depth():
    """One instance under a list, as a dict value and at the top of a value,
    each at its own indentation, holding a nested instance that is shared too."""
    inner = _Verdict([1, {"x": (2, 3)}], frozenset({(0, "a"), (1, "b")}))
    shared = _Verdict({"deep": [inner, [inner]]}, ["s", 2.5, None])
    value = {"list": [shared, [0, shared]], "dict": {"k": {"v": shared}}, "top": shared,
             "inner": inner}
    assert formats.canonical_dumps(value) == _reference_dumps(value)
    field, digest = formats.written_field([value, shared])
    assert digest == "sha256:" + hashlib.sha256(_reference_dumps([value, shared]).encode()
                                                ).hexdigest()
    assert formats.canonical_dumps({"field": field}) == _reference_dumps(
        {"field": [value, shared]})


def test_mutable_instance_is_written_as_it_is_at_each_dump(fix_c6):
    """A cover mutated between two dumps, each holding it twice, shows each
    state in its own document."""
    cover = covers.build_cover(fix_c6, 1, 0, 1)
    first = formats.canonical_dumps({"a": [cover], "b": cover})
    assert first == _reference_dumps({"a": [cover], "b": cover})
    cover.frontier_radius += 7
    cover.unknown_pairs.append((0, 1))
    second = formats.canonical_dumps({"a": [cover], "b": cover})
    assert second == _reference_dumps({"a": [cover], "b": cover})
    assert second != first
    assert formats.written_field(cover)[1] == "sha256:" + hashlib.sha256(
        _reference_dumps(cover).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metric ingestion against the loops it replaced


def _old_parse_distance_csv(text):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            rows.append([formats.parse_number(cell, f"line {lineno}")
                         for cell in line.split(",")])
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise formats.ParseError(
                f"row has {len(row)} entries but the matrix has {n} rows",
                f"line {lineno}",
            )
    return rows


def _old_from_metric(matrix, radii, points=None):
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise AsymmetricMatrix("distance matrix is not square")
    for i in range(n):
        if matrix[i][i] != 0:
            raise AsymmetricMatrix(f"nonzero diagonal entry at {i}")
        for j in range(n):
            if matrix[i][j] != matrix[j][i]:
                raise AsymmetricMatrix(f"matrix[{i}][{j}] != matrix[{j}][{i}]")
            if matrix[i][j] < 0:
                raise AsymmetricMatrix(f"negative distance at ({i}, {j})")
    radii = tuple(radii)
    if not radii:
        raise NonDecreasingRadii("at least one radius is required")
    for r, s in zip(radii, radii[1:]):
        if not s < r:
            raise NonDecreasingRadii(f"radii must strictly decrease, got {r} then {s}")
    if radii[-1] < 0:
        raise NonDecreasingRadii("radii must be nonnegative")
    if points is None:
        points = tuple(range(n))
    else:
        points = tuple(points)
        if len(points) != n:
            raise SpaceError("point list does not match matrix size")
        if len(set(points)) != n:
            raise SpaceError("duplicate point identifiers")
    scales = []
    for r in radii:
        pairs = set()
        for i in range(n):
            for j in range(i + 1, n):
                if matrix[i][j] <= r:
                    pairs.add((points[i], points[j]))
        scales.append(frozenset(pairs))
    hausdorff = not scales[-1]  # the finest scale is the diagonal
    return FilteredSpace(points, tuple(scales), hausdorff)


def _outcome(call, *args):
    """What a call returned, or the class, text and position of what it raised."""
    try:
        return "returned", call(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc), getattr(exc, "position", None)


_NAN = float("nan")
# distances and radii share one small pool, so ties at a radius are common
_DISTANCES = {"int": st.integers(0, 4),
              "float": st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.25]),
              "mixed": st.sampled_from([0, 1, 2, 0.5, 1.0, 1.5, 2.0, 3])}


@st.composite
def metric_input(draw):
    """A matrix, radii and point names; some matrices are spoilt in one way."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(sorted(_DISTANCES)))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(_DISTANCES[kind])
    spoil = draw(st.sampled_from(["none"] * 4 + ["ragged", "negative", "diagonal",
                                                 "asymmetric", "shared_nan"]))
    if spoil == "ragged" and n:
        matrix[draw(st.integers(0, n - 1))].append(1)
    elif spoil == "ragged":
        matrix.append([])
    elif n and spoil != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if spoil == "negative":
            matrix[i][j] = matrix[j][i] = -draw(_DISTANCES[kind]) - 1
        elif spoil == "diagonal":
            matrix[i][i] = draw(_DISTANCES[kind].filter(bool))
        elif spoil == "asymmetric":
            matrix[i][j] = 7.5
        else:
            matrix[i][j] = matrix[j][i] = _NAN
    radii = draw(st.lists(_DISTANCES[kind] | st.sampled_from([2.5, -1]), min_size=0,
                          max_size=3, unique=True))
    if draw(st.integers(0, 4)):
        radii.sort(reverse=True)
    names = draw(st.none() | st.just([f"p{i}" for i in range(n)])
                 | st.just(["dup"] * n) | st.just(list(range(n + 1))))
    return matrix, radii, names


@settings(max_examples=400, deadline=None)
@given(metric_input())
@example(([], [1], None))
@example(([[0]], [1, 0], None))
@example(([[0, 2], [2, 0]], [2, 1], None))
@example(([[0, 1], [1, 0]], [1.0, 0], ["a", "b"]))
@example(([[0, _NAN], [_NAN, 0]], [1], None))
@example(([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [_NAN], None))
@example(([[0, 1], [1, 0], [0, 0]], [1], None))
@example(([[0, -1], [-1, 0]], [1], None))
@example(([[1, 0], [0, 0]], [1], None))
def test_from_metric_matches_old_loop(drawn):
    """Same points, scales and hausdorff flag, or the same exception and text.
    One NaN object at [i][j] and [j][i] passes tuple equality, but not !=."""
    matrix, radii, names = drawn
    old = _outcome(_old_from_metric, matrix, radii, names)
    new = _outcome(from_metric, matrix, radii, names)
    if old[0] == "raised":
        assert new == old
    else:
        assert new[0] == "returned"
        assert (new[1].points, new[1].scales, new[1].hausdorff) == (
            old[1].points, old[1].scales, old[1].hausdorff)


# each bad cell in the second line, beside an integer or a decimal cell; a ragged row
_BAD_CSV = [f"0,1,2\n1,{other},{cell}\n2,1,0\n"
            for cell in ["1_0", "\u0661", "", "+-1", "inf", "nan", "1e400", " 1 2", "0x1"]
            for other in ["3", "1.5"]] + ["0,1,2\n1,0\n\n2,1,0\n"]


@pytest.mark.parametrize("text", _BAD_CSV)
def test_bad_csv_reads_as_before(text):
    """The same error class, text and position as the per-cell reader."""
    old = _outcome(_old_parse_distance_csv, text)
    assert old[0] == "raised"
    assert _outcome(formats.parse_distance_csv, text) == old


_CSV_CELLS = (st.integers(-10 ** 30, 10 ** 30).map(str)
              | st.sampled_from(["0", " 7", "+3\t", "-0", "007", "1.5", "2e1", "-.5", "1E2",
                                 "", " ", "1_0", "١", "+-1", "--1", "inf", "nan",
                                 "1e400", "0x1", "1 2", " 1"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=4), min_size=1, max_size=4))
def test_parse_distance_csv_matches_old_reader(rows):
    """Equal rows, ints and floats alike, or the same error and position."""
    text = "\n".join(",".join(row) for row in rows) + "\n"
    old = _outcome(_old_parse_distance_csv, text)
    new = _outcome(formats.parse_distance_csv, text)
    assert repr(new) == repr(old)


# ---------------------------------------------------------------------------
# space specs: the pairs form, the scales form and the matrix form


_LABELS = st.sampled_from([0, 1, 2, 3, 5, 8, 13, "a", "b", 'q"', "\\", "é"])
_ANY_LABELS = (_LABELS | st.none() | st.floats(-2, 2, allow_nan=False)
               | st.tuples(st.integers(0, 2), st.text("ab", max_size=2))
               | st.tuples(st.tuples(st.integers(0, 1))))


@st.composite
def finest_space(draw, labels=_LABELS):
    """Up to six points and three scales, each pair related up to a random
    finest scale or at none, listed in a random order; the Hausdorff flag is
    random wherever the finest scale is the diagonal."""
    points = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    depth = draw(st.integers(1, 3))
    triples = []
    for a, b in itertools.combinations(points, 2):
        k = draw(st.integers(0, depth))
        if k:
            triples.append((a, b, k) if draw(st.booleans()) else (b, a, k))
    triples = draw(st.permutations(triples))
    hausdorff = all(k < depth for _, _, k in triples) and draw(st.booleans())
    return from_finest(points, depth, triples, hausdorff)


def matrix_spec(space):
    """A distance matrix thresholded at radii depth, ..., 1 to the space: a
    pair whose finest scale is k lies at distance depth + 1 - k, and an
    unrelated pair at depth + 1."""
    m = space.depth
    finest = {pair: k for k, pairs in enumerate(space.scales, start=1) for pair in pairs}
    matrix = [[0 if x == y else m + 1 - finest.get(space.pair(x, y), 0) for y in space.points]
              for x in space.points]
    return {"kind": "space", "matrix": matrix, "radii": list(range(m, 0, -1)),
            "names": list(space.points)}


def _cli_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(finest_space(), st.data())
def test_space_spec_forms_give_identical_reports(space, data):
    """The pairs, scales and matrix specs of one space read as that space,
    and give byte-identical analyze and cover reports, inputs included.  The
    matrix form is Hausdorff exactly when the finest scale is the diagonal,
    so it takes part only for such spaces."""
    specs = [formats.space_to_spec(space), scales_spec(space)]
    if space.hausdorff == (not space.scales[-1]):
        specs.append(matrix_spec(space))
    k = data.draw(st.integers(1, space.depth))
    base = str(data.draw(st.sampled_from(space.points)))
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        for spec in specs:
            with open(path, "w") as fh:
                json.dump(spec, fh)
            assert formats.space_from_spec(formats.load_json(path)) == space
            reports.append((_cli_text("analyze", path),
                            _cli_text("cover", path, "--scale", str(k), "--basepoint", base,
                                      "--radius", "2")))
    assert json.loads(reports[0][0])["inputs"]["space"] == json.loads(
        formats.canonical_dumps(specs[0]))
    assert all(r == reports[0] for r in reports)


@settings(max_examples=200, deadline=None)
@given(finest_space(_ANY_LABELS))
def test_pairs_spec_round_trips(space):
    """space_from_spec(space_to_spec(s)) == s through JSON text, flag
    included; the spec lists each related pair once, in point order with a
    before b, at the finest scale that relates it."""
    spec = formats.space_to_spec(space)
    text = formats.canonical_dumps(spec)
    again = formats.space_from_spec(json.loads(text))
    assert again == space and again.hausdorff == space.hausdorff
    assert formats.canonical_dumps(formats.space_to_spec(again)) == text
    listed = [(a, b) for a, b, _ in spec["pairs"]]
    assert listed == space.sorted_pairs(1)
    for a, b, k in spec["pairs"]:
        assert [space.related(j, a, b) for j in range(1, space.depth + 1)] == (
            [True] * k + [False] * (space.depth - k))


# ---------------------------------------------------------------------------
# explicit scales read in bulk, against the per-pair reader they replaced


def _old_normalize_scale(points, index, raw_pairs, k):
    listed = set()
    for a, b in raw_pairs:
        if a not in index:
            raise UnknownPoint(a)
        if b not in index:
            raise UnknownPoint(b)
        listed.add((a, b))
    for a, b in sorted(listed, key=lambda ab: (index[ab[0]], index[ab[1]])):
        if a != b and (b, a) not in listed:
            raise NonSymmetric(k, (a, b))
    for p in points:
        if (p, p) not in listed:
            raise NonReflexive(k, p)
    normalized = set()
    for a, b in listed:
        if a != b:
            ia, ib = index[a], index[b]
            normalized.add((a, b) if ia < ib else (b, a))
    return frozenset(normalized)


def _old_read_scales(spec):
    """space_from_spec on a scales spec as it was: each entry read by _pair,
    each scale checked pair by pair."""
    points = tuple(formats._as_point(p) for p in formats._expect(spec["points"], list, "points"))
    scales = [[formats._pair(pair) for pair in formats._expect(scale, list, "a scale")]
              for scale in formats._expect(spec["scales"], list, "scales")]
    if len(set(points)) != len(points):
        raise SpaceError("duplicate point identifiers")
    if not scales:
        raise SpaceError("at least one scale is required")
    index = {p: i for i, p in enumerate(points)}
    normalized = [_old_normalize_scale(points, index, raw, k)
                  for k, raw in enumerate(scales, start=1)]
    return FilteredSpace(points, tuple(normalized), False)


_SCALE_ENTRIES = (st.tuples(st.integers(0, 4), st.integers(0, 4)).map(list)
                  | st.sampled_from([[0], [0, 1, 2], 3, [[0], 1], [0, {"a": 1}], [9, 0],
                                     [0, "0"], ["x", "x"]]))


@st.composite
def scales_spec_input(draw):
    """A scales spec over points 0..n-1, mostly well formed: each scale
    symmetric and reflexive, or with a few entries dropped and added."""
    n = draw(st.integers(1, 4))
    points = list(range(n))
    scales = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = [[a, b] for a in points for b in points
                 if a == b or draw(st.integers(0, 3)) == 0]
        pairs += [[b, a] for a, b in pairs if [b, a] not in pairs]
        pairs = draw(st.permutations(pairs))
        if draw(st.integers(0, 2)) == 0:
            pairs = pairs[draw(st.integers(0, 3)):] + draw(st.lists(_SCALE_ENTRIES, max_size=2))
        scales.append(pairs)
    return {"points": points, "scales": scales}


@settings(max_examples=400, deadline=None)
@given(scales_spec_input())
@example({"points": [0, 1], "scales": [[[0, 0], [1, 1], [1, 0]]]})
@example({"points": [0, 1], "scales": [[[0, 0], [7, 1], [1, 8]]]})
@example({"points": [0, 1, 2], "scales": [[[0, 0], [1, 1], [2, 1], [0, 2]]]})
@example({"points": [0, 1, 2], "scales": [[[0, 0], [1, 1], [2, 2], [1, 0], [0, 2]]]})
@example({"points": [0, 1], "scales": [[[0, 0], [0, 1], [1, 0]]]})
@example({"points": [0, 1, 2], "scales": [[[1, 1]]]})
def test_explicit_scales_read_as_before(spec):
    """The same space, or the same exception and text, as the per-pair
    reader; nesting is FilteredSpace's check in both."""
    old = _outcome(_old_read_scales, spec)
    new = _outcome(formats.space_from_spec, spec)
    if old[0] == "raised":
        assert new == old
    else:
        assert new[0] == "returned" and new[1] == old[1]


# ---------------------------------------------------------------------------
# each scale indexed on first use, against the index built for every scale


def _eager_index(space):
    """The index FilteredSpace built for every scale on construction."""
    closed, adjacency = {}, {}
    for k, pairs in enumerate(space.scales, start=1):
        nbrs = {p: set() for p in space.points}
        for a, b in pairs:
            nbrs[a].add(b)
            nbrs[b].add(a)
        adjacency[k] = {p: tuple(sorted(ys, key=space.index)) for p, ys in nbrs.items()}
        closed[k] = {p: frozenset(ys | {p}) for p, ys in nbrs.items()}
    return closed, adjacency


def _eager_queries(space):
    """closed, neighbors, related and chain_components as they read the eager index."""
    closed, adjacency = _eager_index(space)

    def lookup(table, k, x):
        try:
            return table[k][x]
        except KeyError:
            space.check_scale(k)
            raise UnknownPoint(x) from None

    def related(k, x, y):
        if y in lookup(closed, k, x):
            return True
        space.index(y)
        return False

    def components(k, x, y):
        space.check_scale(k)
        return Partition(spaces.components(space.points, adjacency[k].__getitem__,
                                           space.index))

    return {"closed": lambda k, x, y: lookup(closed, k, x),
            "neighbors": lambda k, x, y: lookup(adjacency, k, x),
            "related": related, "chain_components": components}


@settings(max_examples=200, deadline=None)
@given(filtered_space(), st.data())
def test_lazy_index_answers_as_the_eager_one(space, data):
    """On a fresh space, queries at scales never read and already read, at
    scales out of range and at unknown points, return what the eager index
    returned, or raise the same exception: BadScale before UnknownPoint."""
    fresh = FilteredSpace(space.points, space.scales, space.hausdorff)
    assert fresh._closed == {} == fresh._adjacency
    old = _eager_queries(space)
    new = {"closed": lambda k, x, y: fresh.closed(k, x),
           "neighbors": lambda k, x, y: fresh.neighbors(k, x), "related": fresh.related,
           "chain_components": lambda k, x, y: chain_components(fresh, k)}
    names = sorted(old)
    point = st.sampled_from(list(space.points) + ["nowhere"])
    for _ in range(data.draw(st.integers(1, 12))):
        name = data.draw(st.sampled_from(names))
        k = data.draw(st.integers(0, space.depth + 1))
        x, y = data.draw(point), data.draw(point)
        assert _outcome(new[name], k, x, y) == _outcome(old[name], k, x, y)
    assert set(fresh._closed) <= set(range(1, space.depth + 1))
