"""Basepointed covers at a scale, built breadth-first under explicit budgets.

A vertex of the cover is a homotopy class of scale-k chains from the
basepoint, held as its breadth-first-minimal reduced representative.  A new
chain is compared only with the vertices in its bucket: those with the same
endpoint and the same H1 class of their word, which a dict indexes.  Any
other vertex differs in H1, so it is certified distinct without a word
problem.  Within the bucket, chains are identified by reduced-word equality,
then by the word problem of the Tietze-reduced presentation (rewriting, coset
enumeration); an Unknown outcome marks the cover identification-incomplete
and downstream verifiers refuse to conclude rather than guess.  A complete,
fully identified cover is a uniform covering map by construction, so its
verdict is read off the cover, not re-derived from its edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as ila
from .rips import (
    AbelianGroupInv,
    _chain_letters,
    _h1_coords,
    _word_trivial,
    free_reduce,
    h1_pushforward,
    invert_word,
    presentation_at_scale,
    presentation_h1,
    DEFAULT_COSET_ROWS,
)
from .spaces import (
    Chain,
    EndpointMismatch,
    FilteredSpace,
    SpaceError,
    is_chain,
)


class BadScalePair(SpaceError):
    pass


class BudgetExhausted(SpaceError):
    pass


@dataclass
class PartialCover:
    """Budget-bounded realization of the scale-k cover of a basepoint.

    ``edges[v][y]`` holds the vertex reached from v by the one-step extension
    to the successor point y, or None while unexplored.  Mutated only during
    construction and on-demand lifting; treat as read-only afterwards.

    Every representative is reduced: no interior point is spanned by its
    neighbours at scale k, and no point repeats its predecessor.  Besides the
    fields, the cover keeps each vertex's ``(len, point indices)`` order key
    and lists the vertex ids of each (endpoint, H1 class) bucket in id order.
    """

    space: FilteredSpace
    scale: int
    basepoint: object
    ident_budget: int
    # a cover starts at the basepoint's constant chain and grows from there
    reps: list = field(default_factory=list, init=False)
    words: list = field(default_factory=list, init=False)
    endpoints: list = field(default_factory=list, init=False)
    edges: list = field(default_factory=list, init=False)
    frontier_radius: int = 0
    complete: bool = False
    identification_incomplete: bool = False
    unknown_pairs: list = field(default_factory=list)

    def __post_init__(self):
        self.presentation = presentation_at_scale(self.space, self.scale, self.basepoint)
        self._keys = []
        self._buckets = {}
        self._add_vertex((self.basepoint,), (), self._bucket(self.basepoint, ()))

    @property
    def num_vertices(self) -> int:
        return len(self.reps)

    def _order_key(self, seq) -> tuple:
        return len(seq), tuple(map(self.space.index, seq))

    def _bucket(self, end, word) -> tuple:
        pres = self.presentation
        if not pres.relators:
            # a free group: reduced words are its classes, and the H1
            # coordinates would be one exponent sum per generator
            return end, word
        return end, _h1_coords(pres, word)

    def _add_vertex(self, seq, word, bucket) -> int:
        vid = len(self.reps)
        self.reps.append(seq)
        self.words.append(word)
        self.endpoints.append(seq[-1])
        self.edges.append({y: None for y in self.space.neighbors(self.scale, seq[-1])})
        self._keys.append(self._order_key(seq))
        self._buckets.setdefault(bucket, []).append(vid)
        return vid


def _identify(cover: PartialCover, seq, word, bucket):
    """Vertex id of an existing class equal to the given chain, or None.

    Only the chain's bucket is scanned, in vertex-id order.  H1 coordinates
    are additive, so a vertex in another bucket is one where the word problem
    answers No by H1 separation; never Yes, never Unknown, so skipping it
    changes neither the first Yes nor the unknown pairs.

    An Unknown comparison only taints the cover when the candidate is never
    certified equal to another vertex: a later certified match settles the
    earlier undecided pair through the existing vertex separations.
    """
    pending = []
    for vid in cover._buckets.get(bucket, ()):
        if cover.words[vid] == word:
            return vid
        combined = free_reduce(word + invert_word(cover.words[vid]))
        decision = _word_trivial(cover.presentation, combined, cover.ident_budget)
        if decision.is_yes:
            return vid
        if decision.is_unknown:
            pending.append(
                {"candidate": list(seq), "vertex": vid, "reason": decision.witness}
            )
    if pending:
        cover.identification_incomplete = True
        cover.unknown_pairs.extend(pending)
    return None


def _extend_reduced(space: FilteredSpace, k: int, rep: tuple, y) -> tuple:
    """``reduce_chain(space, k, rep + (y,)).seq`` for a reduced chain rep.

    No interior point of rep is removable, so only the tail can change: pop
    the point before y while y is scale-k close to the one before that, then
    drop y if it repeats its predecessor.  Raises SpaceError unless y is
    scale-k close to rep's endpoint.
    """
    if y not in space.closed(k, rep[-1]):
        raise SpaceError(f"not a chain at scale {k}: {rep + (y,)!r}")
    seq = [*rep, y]
    while len(seq) >= 3 and y in space.closed(k, seq[-3]):
        del seq[-2]
    if len(seq) >= 2 and seq[-2] == y:
        seq.pop()
    return tuple(seq)


def _resolve_slot(cover: PartialCover, vid: int, y, allow_create: bool = True) -> int:
    """Fill edges[vid][y], creating a vertex for a genuinely new class.

    With allow_create False the slot is left unexplored when the extension
    does not identify with a known class; returns whether a class was created.

    The extension is reduced by ``_extend_reduced``.  A class found again
    keeps the smaller representative by ``(len, point indices)``; the swap
    keeps the endpoint and the H1 class, so the vertex's bucket.

    The vertex in edges[vid][y] ends at y, a neighbour of endpoints[vid] and
    never that point itself, so no edge joins two lifts of one point.
    """
    candidate = _extend_reduced(cover.space, cover.scale, cover.reps[vid], y)
    # _extend_reduced proved the candidate a scale-k chain, and it starts at
    # the basepoint, so every point of it lies in the basepoint's component
    word = _chain_letters(cover.presentation, candidate)
    bucket = cover._bucket(y, word)
    target = _identify(cover, candidate, word, bucket)
    created = target is None
    if created:
        if not allow_create:
            return False
        target = cover._add_vertex(candidate, word, bucket)
    elif len(candidate) <= len(cover.reps[target]):
        key = cover._order_key(candidate)
        if key < cover._keys[target]:
            cover.reps[target] = candidate
            cover.words[target] = word
            cover._keys[target] = key
    cover.edges[vid][y] = target
    return created


def build_cover(space: FilteredSpace, k: int, basepoint, radius_budget: int,
                ident_budget: int = DEFAULT_COSET_ROWS) -> PartialCover:
    """Breadth-first cover construction, stopping at the radius budget.

    Each round resolves every currently unexplored vertex-successor slot; the
    cover is complete once a round adds no new class and nothing is left
    unexplored.  Deterministic given the budgets.
    """
    space.check_scale(k)
    space.index(basepoint)
    cover = PartialCover(space, k, basepoint, ident_budget)
    rounds = 0

    def unresolved_slots():
        return [
            (vid, y)
            for vid in range(cover.num_vertices)
            for y in cover.edges[vid]
            if cover.edges[vid][y] is None
        ]

    while rounds < radius_budget:
        unresolved = unresolved_slots()
        if not unresolved:
            cover.complete = True
            break
        new_classes = 0
        for vid, y in unresolved:
            if cover.edges[vid][y] is None:
                new_classes += _resolve_slot(cover, vid, y)
        rounds += 1
        cover.frontier_radius = rounds
        if new_classes == 0:
            cover.complete = True
            break
    if not cover.complete:
        # closure pass: the cover is also complete when every frontier
        # extension identifies with a known class; no vertex is created here
        for vid, y in unresolved_slots():
            _resolve_slot(cover, vid, y, allow_create=False)
        cover.complete = not unresolved_slots()
    return cover


@dataclass(frozen=True)
class UcmReport:
    generates: bool
    generation_failures: tuple
    chain_lifting: bool
    lifting_witnesses: tuple
    transverse_scale: int | None
    verdict: str  # "UCM" | "Inconclusive"
    reason: str | None = None


def verify_endpoint_ucm(cover: PartialCover) -> UcmReport:
    """The covering verdict of the endpoint map, read off the construction.

    Only complete, fully identified covers admit a verdict; anything else is
    Inconclusive with the exhausted budget named.  Every other cover is a
    uniform covering map at every scale j >= k, the cover's scale k, for the
    entourage basis of one-step extensions between j-close endpoints:
    nothing about it is left to check.
    """
    if cover.identification_incomplete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "identification budget exhausted; classes undetermined")
    if not cover.complete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "radius budget exhausted before completion")
    # Generation: completeness resolved every slot, so every point of the
    # basepoint's scale-k component is an endpoint, and each scale-j
    # neighbour y of an endpoint (scale j nests in scale k) has a resolved
    # slot ending at y: the one-step edges between j-close endpoints map onto
    # exactly the component's scale-j pairs.
    # Lifting: each scale-j step from an endpoint is such a resolved slot,
    # which is itself an edge of the scale-j basis, so every scale j >= k is
    # a witness.
    # Transversality at k: certified identification never leaves two
    # vertices with one (endpoint, word), and a slot never joins two lifts
    # of one point (see _resolve_slot).
    k = cover.scale
    return UcmReport(True, (), True, tuple(range(k, cover.space.depth + 1)), k, "UCM")


@dataclass(frozen=True)
class BondingH1:
    """Matrix of the inclusion-induced map H1(scale j) -> H1(scale k)."""

    finer: int
    coarser: int
    source: AbelianGroupInv
    target: AbelianGroupInv
    matrix: tuple


def bonding_h1_map(space: FilteredSpace, j: int, k: int) -> BondingH1:
    """Inclusion-induced homomorphism between whole-space H1 groups, j finer.

    Each H1(j) basis element is an integer combination of fundamental loops
    of the scale-j presentation; each loop is a scale-k loop as well, and
    its class in H1(k) is read off the scale-k presentation.
    """
    space.check_scale(j)
    space.check_scale(k)
    if j < k:
        raise BadScalePair(f"expected finer {j} >= coarser {k}")
    pj = presentation_at_scale(space, j, None)
    pk = presentation_at_scale(space, k, None)
    return BondingH1(j, k, presentation_h1(pj), presentation_h1(pk),
                     h1_pushforward(pj, pk))


def is_isomorphism(b: BondingH1) -> bool:
    """Exact test: equal invariants plus surjectivity (f.g. groups are Hopfian)."""
    if b.source != b.target:
        return False
    relations = list(b.target.torsion) + [0] * b.target.rank
    rows = [list(r) for r in b.matrix]
    return ila.is_surjective_onto(rows, relations)


def critical_scales(space: FilteredSpace) -> list:
    """Adjacent scale pairs whose H1 bonding map fails to be an isomorphism."""
    out = []
    for k in range(1, space.depth):
        if not is_isomorphism(bonding_h1_map(space, k + 1, k)):
            out.append((k, k + 1))
    return out


def lift_chain(cover: PartialCover, start_vertex: int, downstairs,
               extend_budget: int = 0) -> list:
    """The unique lift of a downstairs chain through the edge table.

    The chain may live at any scale at least as fine as the cover's.  With a
    positive extend_budget, unexplored slots along the way are resolved on
    demand; otherwise hitting one raises BudgetExhausted.
    """
    if isinstance(downstairs, Chain):
        j, seq = downstairs.scale, downstairs.seq
    else:
        j, seq = cover.scale, tuple(downstairs)
    if j < cover.scale:
        raise BadScalePair(f"chain scale {j} is coarser than cover scale {cover.scale}")
    if not is_chain(cover.space, j, seq):
        raise SpaceError(f"not a chain at scale {j}: {seq!r}")
    if seq[0] != cover.endpoints[start_vertex]:
        raise EndpointMismatch(
            f"chain starts at {seq[0]!r}, vertex ends at {cover.endpoints[start_vertex]!r}"
        )
    lift = [start_vertex]
    remaining = extend_budget
    for y in seq[1:]:
        cur = lift[-1]
        if y == cover.endpoints[cur]:
            lift.append(cur)
            continue
        slot = cover.edges[cur][y]
        if slot is None:
            if remaining <= 0:
                raise BudgetExhausted(
                    f"unexplored step {cover.endpoints[cur]!r}->{y!r}; extension budget used up"
                )
            remaining -= 1
            _resolve_slot(cover, cur, y)
            slot = cover.edges[cur][y]
        lift.append(slot)
    return lift


def cover_to_dot(cover: PartialCover) -> str:
    """Graphviz rendering with canonical representatives as labels."""
    lines = ["digraph cover {"]
    for vid in range(cover.num_vertices):
        label = ",".join(str(p) for p in cover.reps[vid])
        shape = ' shape="doublecircle"' if vid == 0 else ""
        lines.append(f'  v{vid} [label="{label}"{shape}];')
    for vid in range(cover.num_vertices):
        for y, target in cover.edges[vid].items():
            if target is not None:
                lines.append(f'  v{vid} -> v{target} [label="{y}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
