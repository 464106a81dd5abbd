"""Finite filtered spaces.

A filtered space is a finite point set together with a descending chain of
symmetric reflexive relations E_1 >= E_2 >= ... >= E_m, each one recording
"closeness at a scale".  Scale indices are 1-based and 1 is the coarsest
scale, so a larger index always means a finer relation.  All values are
immutable after construction and every operation here is a pure function.

A space indexes a scale when the scale is first read: for each point x it
holds the closed neighbourhood E_k[x] as a frozenset and the neighbours of x
in point order.  Relation questions are asked per point against that index,
as in f(E[x]) <= F[f(x)]; anything whose first hit reaches a report walks the
ordered neighbours, so set order never decides it.

``chain`` is the one chain check: the functions that take a chain, as a
point sequence or a ``Chain``, validate it there; ``is_chain`` is its bool.

Every chain search in the package runs on one engine, ``breadth_first``:
spanning forests grow one tree per call over a shared parent dict, the
approximate-uniqueness fixpoint searches pairs of points from the whole
diagonal at once, and group closure searches permutations from the identity.
Every partition is a ``components`` search on it: chain components, fiber
components (along the steps whose ends have equal images), and orbits and
cosets (along the generators).  Every coarsest-scale witness is a
``coarsest`` search, which reads a condition written once as a function
returning its own counterexample: the continuity, pullback and cofinality
witnesses of a map, its chain lifting and approximate uniqueness, an
action's neutral, bounded-orbit and equicontinuity witnesses, and a tower's
strong Mittag-Leffler witnesses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import wraps
from itertools import accumulate, chain as _chain, compress, repeat
from operator import le, ne
from typing import Iterable, Sequence


class SpaceError(ValueError):
    """Base class for filtered-space validation failures."""


class NonSymmetric(SpaceError):
    def __init__(self, scale, pair=None):
        self.scale = scale
        self.pair = pair
        super().__init__(f"scale {scale} is not symmetric (pair {pair!r} has no mirror)")


class NonReflexive(SpaceError):
    def __init__(self, scale, point=None):
        self.scale = scale
        self.point = point
        super().__init__(f"scale {scale} is not reflexive at point {point!r}")


class NotNested(SpaceError):
    def __init__(self, scale, pair=None):
        self.scale = scale
        self.pair = pair
        super().__init__(
            f"scale {scale + 1} is not contained in scale {scale} (extra pair {pair!r})"
        )


class HausdorffViolated(SpaceError):
    def __init__(self, pair=None):
        self.pair = pair
        super().__init__(f"hausdorff flag set but finest scale is not the diagonal ({pair!r})")


class AsymmetricMatrix(SpaceError):
    pass


class NonDecreasingRadii(SpaceError):
    pass


class UnknownPoint(SpaceError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"unknown point {point!r}")


class BadScale(SpaceError):
    def __init__(self, scale, depth):
        self.scale = scale
        super().__init__(f"scale index {scale} out of range 1..{depth}")


class ScaleMismatch(SpaceError):
    pass


class EndpointMismatch(SpaceError):
    pass


@dataclass(frozen=True)
class FilteredSpace:
    """Finite point set with a descending chain of entourages.

    ``scales[k-1]`` holds scale k as a frozenset of normalized non-diagonal
    pairs ``(a, b)`` with a before b in point order; the diagonal is implicit.
    ``hausdorff`` asserts that the finest scale is exactly the diagonal.
    Construction raises NotNested, naming the first extra pair in point
    order, when a scale is not contained in the one before it, so every
    space's scales nest.

    A scale is indexed by point the first time it is read: ``closed(k, x)``
    is the closed neighbourhood E_k[x] as a frozenset, for membership tests,
    and ``neighbors(k, x)`` the points other than x in it, in point order,
    for iteration whose order can reach a report; ``scale_index(k)`` hands
    out both maps, for loops over every point.  ``related`` is one lookup
    in the first.  The index lives on the space, so a scale that is never
    read, such as every scale of a tower's limit space, is never indexed.
    """

    points: tuple
    scales: tuple
    hausdorff: bool = False

    def __post_init__(self):
        index = {p: i for i, p in enumerate(self.points)}
        for k, (coarse, fine) in enumerate(zip(self.scales, self.scales[1:]), start=1):
            if not fine <= coarse:
                raise NotNested(k, min(fine - coarse,
                                       key=lambda ab: (index[ab[0]], index[ab[1]])))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_closed", {})
        object.__setattr__(self, "_adjacency", {})

    def scale_index(self, k):
        """(closed, adjacency): dicts mapping each point to ``closed(k, x)``
        and to ``neighbors(k, x)``, for loops over the whole scale; built on
        first use, BadScale for a scale out of range.  Treat as read-only."""
        try:
            return self._closed[k], self._adjacency[k]
        except KeyError:
            self.check_scale(k)
        index = self._index
        nbrs = {p: set() for p in self.points}
        for a, b in self.scales[k - 1]:
            nbrs[a].add(b)
            nbrs[b].add(a)
        adjacency = {p: tuple(sorted(ys, key=index.__getitem__)) for p, ys in nbrs.items()}
        closed = {p: frozenset(ys | {p}) for p, ys in nbrs.items()}
        self._closed[k], self._adjacency[k] = closed, adjacency
        return closed, adjacency

    def _missed(self, k, x):
        """(E_k[x], the neighbours of x) after a lookup missed: scale k is
        indexed unless it already is, and BadScale comes before UnknownPoint."""
        closed, adjacency = self.scale_index(k)
        try:
            return closed[x], adjacency[x]
        except KeyError:
            raise UnknownPoint(x) from None

    @property
    def depth(self) -> int:
        return len(self.scales)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(point) from None

    def check_scale(self, k: int) -> int:
        if not 1 <= k <= self.depth:
            raise BadScale(k, self.depth)
        return k

    def pair(self, x, y):
        """Normalized non-diagonal pair, or None for a diagonal pair."""
        i, j = self.index(x), self.index(y)
        if i == j:
            return None
        return (x, y) if i < j else (y, x)

    def closed(self, k: int, x) -> frozenset:
        """The closed scale-k neighbourhood of x, x included."""
        try:
            return self._closed[k][x]
        except KeyError:
            return self._missed(k, x)[0]

    def related(self, k: int, x, y) -> bool:
        if y in self.closed(k, x):
            return True
        self.index(y)
        return False

    def neighbors(self, k: int, x) -> tuple:
        """Points other than x related to x at scale k, in point order."""
        try:
            return self._adjacency[k][x]
        except KeyError:
            return self._missed(k, x)[1]

    def scale_pairs(self, k: int) -> frozenset:
        self.check_scale(k)
        return self.scales[k - 1]

    def sorted_pairs(self, k: int) -> list:
        key = self._index.__getitem__
        return sorted(self.scales[k - 1], key=lambda ab: (key(ab[0]), key(ab[1])))

    def sort_points(self, pts: Iterable) -> tuple:
        return tuple(sorted(pts, key=self._index.__getitem__))


@dataclass(frozen=True)
class Chain:
    """A scale index together with a point sequence walking that scale."""

    scale: int
    seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))
        if not self.seq:
            raise SpaceError("chain must be nonempty")

    @property
    def start(self):
        return self.seq[0]

    @property
    def end(self):
        return self.seq[-1]


@dataclass(frozen=True)
class Partition:
    """Pairwise disjoint blocks covering a carrier set."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        lookup = {}
        for block in self.blocks:
            for p in block:
                if p in lookup:
                    raise SpaceError(f"point {p!r} occurs in two blocks")
                lookup[p] = block
        object.__setattr__(self, "_lookup", lookup)

    def block_of(self, point) -> tuple:
        try:
            return self._lookup[point]
        except KeyError:
            raise UnknownPoint(point) from None

    def __len__(self):
        return len(self.blocks)


def _normalize_scale(points, index, raw_pairs, k):
    """Strict symmetry/reflexivity check of an ordered pair list for scale k,
    in bulk.  The pairs are walked one by one only to name the first unknown
    point in list order, and searched only to name the first pair without a
    mirror in point order."""
    listed = set(map(tuple, raw_pairs))
    if not index.keys() >= set(_chain.from_iterable(listed)):
        for a, b in raw_pairs:
            if a not in index:
                raise UnknownPoint(a)
            if b not in index:
                raise UnknownPoint(b)
    mirrors = {(b, a) for a, b in listed}
    if mirrors != listed:
        raise NonSymmetric(k, min(((a, b) for b, a in mirrors - listed),
                                  key=lambda ab: (index[ab[0]], index[ab[1]])))
    if not listed.issuperset(zip(points, points)):
        raise NonReflexive(k, next(p for p in points if (p, p) not in listed))
    return frozenset((a, b) for a, b in listed if index[a] < index[b])


def validate_space(points: Sequence, scales: Sequence, hausdorff: bool = False) -> FilteredSpace:
    """Build a FilteredSpace from explicit ordered pair lists, one per scale.

    Each listed scale must already be symmetric and reflexive, and nesting is
    checked (by FilteredSpace) before the hausdorff flag; nothing is repaired.
    Raises NonSymmetric, NonReflexive, NotNested or HausdorffViolated
    accordingly.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise SpaceError("duplicate point identifiers")
    if not scales:
        raise SpaceError("at least one scale is required")
    index = {p: i for i, p in enumerate(points)}
    normalized = [
        _normalize_scale(points, index, raw, k) for k, raw in enumerate(scales, start=1)
    ]
    space = FilteredSpace(points, tuple(normalized), hausdorff)
    if hausdorff and normalized[-1]:
        raise HausdorffViolated(space.sorted_pairs(space.depth)[0])
    return space


def from_metric(matrix: Sequence[Sequence], radii: Sequence, points: Sequence = None) -> FilteredSpace:
    """Threshold a distance matrix at strictly decreasing radii.

    Scale k relates x and y when d(x, y) <= r_k (closed entourages).  The
    space is Hausdorff exactly when its finest scale is the diagonal, so not
    when two distinct points are at distance 0.  The matrix is checked a row
    at a time, and walked entry by entry only to name the first bad entry.
    """
    n = len(matrix)
    try:  # != (unlike tuple equality) refuses a NaN object at [i][j] and [j][i]
        ok = (all(len(row) == n for row in matrix)
              and not any(row[i] != 0 for i, row in enumerate(matrix))
              and not any(any(map(ne, row, column)) for row, column in zip(matrix, zip(*matrix)))
              and not min(map(min, matrix), default=0) < 0)
    except TypeError:
        ok = False
    if not ok:
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
    # finest[k] holds the pairs whose finest scale is k: d <= r_k, not d <= r_(k+1)
    ascending, depth = radii[::-1], len(radii)
    finest = [[] for _ in range(depth + 1)]
    for i, row in enumerate(matrix):
        for j in compress(range(i + 1, n), map(le, row[i + 1:], repeat(radii[0]))):
            finest[depth - bisect_left(ascending, row[j])].append((points[i], points[j]))
    scales = _nested(finest)
    return FilteredSpace(points, scales, hausdorff=not scales[-1])


def _nested(finest) -> tuple:
    """Scales 1..m from finest[k], the pairs whose finest scale is k (finest[0]
    is unused): scale k is the union of finest[m], ..., finest[k]."""
    return tuple(accumulate(finest[:0:-1], frozenset.union, initial=frozenset()))[:0:-1]


def from_finest(points: Sequence, depth: int, pairs: Iterable,
                hausdorff: bool = False) -> FilteredSpace:
    """Build a FilteredSpace of the given depth from each related pair's
    finest scale.

    ``pairs`` holds one (a, b, k), 1 <= k <= depth, per unordered pair of
    distinct points related at some scale: a and b are related at scales
    1..k, so the scales nest by construction, and a pair that is not listed
    is related at no scale.  Raises SpaceError for duplicate points, a point paired with
    itself or a pair listed twice (in either order), UnknownPoint, and
    HausdorffViolated when the flag is set and a pair reaches scale depth.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise SpaceError("duplicate point identifiers")
    index = {p: i for i, p in enumerate(points)}
    finest = [[] for _ in range(depth + 1)]
    seen = set()
    for a, b, k in pairs:
        try:
            i, j = index[a], index[b]
        except KeyError:
            raise UnknownPoint(b if a in index else a) from None
        if i == j:
            raise SpaceError(f"pair {(a, b)!r} relates a point to itself")
        pair = (points[i], points[j]) if i < j else (points[j], points[i])
        if pair in seen:
            raise SpaceError(f"pair {pair!r} is listed twice")
        seen.add(pair)
        finest[k].append(pair)
    space = FilteredSpace(points, _nested(finest), hausdorff)
    if hausdorff and finest[depth]:
        raise HausdorffViolated(space.sorted_pairs(depth)[0])
    return space


def subspace(space: FilteredSpace, keep: Iterable) -> FilteredSpace:
    """Restriction of every scale to a subset of points, in the original order."""
    keep = set(keep)
    for p in keep:
        space.index(p)
    points = tuple(p for p in space.points if p in keep)
    scales = tuple(
        frozenset((a, b) for a, b in pairs if a in keep and b in keep)
        for pairs in space.scales
    )
    return FilteredSpace(points, scales, hausdorff=not scales[-1])


def is_chain(space: FilteredSpace, k: int, seq: Sequence) -> bool:
    """True when every consecutive pair of seq lies in scale k."""
    space.check_scale(k)
    seq = tuple(seq)
    if not seq:
        raise SpaceError("chain must be nonempty")
    for p in seq:
        space.index(p)
    return all(b in space.closed(k, a) for a, b in zip(seq, seq[1:]))


def chain(space: FilteredSpace, k: int, seq) -> Chain:
    """The one chain check: seq, a point sequence or a Chain, as a scale-k Chain.

    Raises ScaleMismatch for a Chain at another scale, and SpaceError unless
    seq is a nonempty chain at scale k.
    """
    if isinstance(seq, Chain):
        if seq.scale != k:
            raise ScaleMismatch(f"chain at scale {seq.scale}, asked at {k}")
        seq = seq.seq
    seq = tuple(seq)
    if not is_chain(space, k, seq):
        raise SpaceError(f"not a chain at scale {k}: {seq!r}")
    return Chain(k, seq)


def breadth_first(sources, successors, parent: dict):
    """Yield the nodes reachable from sources in breadth-first discovery order.

    Each node is yielded as it is discovered, after ``parent`` records its
    discoverer (None for a source).  A node already in ``parent`` is neither
    yielded nor explored again, so calls sharing one dict grow a forest tree
    by tree, and one call with many sources is a multi-source search.  The
    consumer may stop early.  ``successors(node)`` returns a tuple or a list.
    """
    queue = []
    for node in sources:
        if node not in parent:
            parent[node] = None
            queue.append(node)
            yield node
    for node in queue:  # the queue grows while it is read
        for nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
                yield nxt


def _owned(fn):
    """Memoize fn(owner, *args) in the owner's own ``_memo``, that of a
    ``rips.GroupPresentation``, an ``actions.ActionSpec`` (a scale subgroup's
    record is keyed by its relation as a frozenset of pairs) or a
    ``quotients.FilteredMap``.  Results are shared and never mutated.  A
    lookup hashes only fn and the extra arguments, never the owner (a
    frozenset keeps its hash once computed), and the results die with it.
    """
    @wraps(fn)
    def memoized(owner, *args):
        key = (fn, *args)
        if key not in owner._memo:
            owner._memo[key] = fn(owner, *args)
        return owner._memo[key]

    return memoized


def components(nodes, successors, key=None) -> tuple:
    """The blocks ``breadth_first`` reaches from each of nodes not yet reached,
    in node order, each sorted by key: a partition when reaching is symmetric."""
    parent = {}
    return tuple(tuple(sorted(breadth_first((x,), successors, parent), key=key))
                 for x in nodes if x not in parent)


def coarsest(scales, failure) -> tuple:
    """(s, None) for the first s of scales with ``failure(s)`` None, or (None,
    the failure at the last scale) when every scale fails.  ``failure(s)`` is
    a counterexample to the condition at s, never None itself, or None when
    the condition holds there."""
    last = None
    for s in scales:
        last = failure(s)
        if last is None:
            return s, None
    return None, last


def chain_components(space: FilteredSpace, k: int) -> Partition:
    """Connected components of the scale-k closeness graph.

    The space is chain connected at scale k exactly when there is one block.
    """
    return Partition(components(space.points, space.scale_index(k)[1].__getitem__,
                                space._index.__getitem__))
