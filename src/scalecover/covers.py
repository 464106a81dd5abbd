"""Basepointed covers at a scale, built breadth-first under explicit budgets.

The cover grows in layers of vertex ids: the vertices one round creates get
the next id range, and the next round resolves the slots of that range only.

A vertex of the cover is a homotopy class of scale-k chains from the
basepoint, held as a reduced representative.  The representatives form a
tree: vertex v was created by the slot of its parent u for the point y, and
its representative is u's plus y.  A new chain is compared only with the
vertices in its bucket: those with the same endpoint and the same H1 class
of their word, which a dict indexes.  Any other vertex differs in H1, so it
is certified distinct without a word problem.  Within the bucket, chains
are identified by reduced-word equality, then by the word problem of the
Tietze-reduced presentation (rewriting, then a free-product normal form over
a coset table); an Unknown outcome, which names the exhausted ident_budget,
marks the cover identification-incomplete and downstream verifiers refuse to
conclude rather than guess.  A complete, fully identified cover is a uniform
covering map by construction, so its verdict is read off the cover, not
re-derived from its edges.

Why a slot may read its ancestor's slot, and why a vertex never needs a
smaller representative than the first one found:

1. Round r + 1 creates vertices only from unshortened extensions
   ``reps[v] + (y,)`` of layer r, taken in (v, y) order.  So layer r holds
   the representatives of length r + 1, and within a layer the ids follow
   the lexicographic order of point indices.
2. A shortened extension of ``reps[v]`` by y is ``reps[u] + (y,)`` for an
   ancestor u, or ``reps[u]`` itself.  Slot (u, y) resolved that same chain
   in an earlier round.  Identifying it again would scan the same bucket
   prefix in id order and return the same vertex, because every later
   vertex has a larger id.
3. So a chain that identifies with an existing vertex t is either longer
   than ``reps[t]``, or of equal length and lexicographically later:
   within ``build_cover``, ``reps[t]`` is the smallest chain of its class
   by (length, point indices) among those examined.

Only ``lift_chain`` with a positive extension budget creates vertices out of
layer order; there a vertex keeps the first representative found.
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
    chain,
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

    ``parents[v]`` is the vertex whose slot created v (None for vertex 0),
    and ``reps[v] == reps[parents[v]] + (endpoints[v],)``: the
    representatives are closed under prefixes, so a reduced extension is
    found by walking up the tree (see ``_resolve_slot``).  Every
    representative is reduced: no interior point is spanned by its
    neighbours at scale k, and no point repeats its predecessor.  Besides the
    fields, the cover lists the vertex ids of each (endpoint, H1 class)
    bucket in id order.  A vertex keeps the representative it was created
    with; the module docstring shows why no later chain of its class is
    smaller within ``build_cover``.
    """

    space: FilteredSpace
    scale: int
    basepoint: object
    ident_budget: int
    # a cover starts at the basepoint's constant chain and grows from there
    reps: list = field(default_factory=list, init=False)
    words: list = field(default_factory=list, init=False)
    endpoints: list = field(default_factory=list, init=False)
    parents: list = field(default_factory=list, init=False)
    edges: list = field(default_factory=list, init=False)
    frontier_radius: int = 0
    complete: bool = False
    identification_incomplete: bool = False
    unknown_pairs: list = field(default_factory=list)

    def __post_init__(self):
        self.presentation = presentation_at_scale(self.space, self.scale, self.basepoint)
        self._buckets = {}
        self._add_vertex(None, (self.basepoint,), (), self._bucket(self.basepoint, ()))

    @property
    def num_vertices(self) -> int:
        return len(self.reps)

    def _bucket(self, end, word) -> tuple:
        pres = self.presentation
        if not pres.relators:
            # a free group: reduced words are its classes, and the H1
            # coordinates would be one exponent sum per generator
            return end, word
        return end, _h1_coords(pres, word)

    def _add_vertex(self, parent, seq, word, bucket) -> int:
        vid = len(self.reps)
        self.reps.append(seq)
        self.words.append(word)
        self.endpoints.append(seq[-1])
        self.parents.append(parent)
        self.edges.append({y: None for y in self.space.neighbors(self.scale, seq[-1])})
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


def _resolve_slot(cover: PartialCover, vid: int, y, allow_create: bool = True) -> None:
    """Fill edges[vid][y], creating a vertex for a genuinely new class.

    With allow_create False the slot is left unexplored when the extension
    does not identify with a known class.  Raises SpaceError unless y is
    scale-k close to endpoints[vid].

    No interior point of ``reps[vid]`` is removable, so only the tail of
    ``reps[vid] + (y,)`` reduces: starting at u = vid, u moves to its parent
    while y is scale-k close to the parent's endpoint.  The reduced extension
    is then ``reps[u]`` when u ends at y, and otherwise ``reps[u] + (y,)``,
    which slot (u, y) resolves.  Only a slot that is still unexplored asks
    for identification, and only edges[vid][y] is filled.  An ancestor's
    slot is unexplored only when ``lift_chain`` extends a frontier vertex.

    The vertex in edges[vid][y] ends at y, a neighbour of endpoints[vid] and
    never that point itself, so no edge joins two lifts of one point.
    """
    space, k = cover.space, cover.scale
    if y not in space.closed(k, cover.endpoints[vid]):
        raise SpaceError(f"not a chain at scale {k}: {cover.reps[vid] + (y,)!r}")
    u = vid
    while (p := cover.parents[u]) is not None and y in space.closed(k, cover.endpoints[p]):
        u = p
    target = u if cover.endpoints[u] == y else cover.edges[u][y]
    if target is None:
        # reps[u] + (y,) is a scale-k chain from the basepoint, so every
        # point of it lies in the basepoint's component
        candidate = cover.reps[u] + (y,)
        word = free_reduce(cover.words[u] + _chain_letters(cover.presentation, candidate[-2:]))
        bucket = cover._bucket(y, word)
        target = _identify(cover, candidate, word, bucket)
        if target is None:
            if not allow_create:
                return
            target = cover._add_vertex(u, candidate, word, bucket)
    cover.edges[vid][y] = target


def build_cover(space: FilteredSpace, k: int, basepoint, radius_budget: int,
                ident_budget: int = DEFAULT_COSET_ROWS) -> PartialCover:
    """Breadth-first cover construction in layers of vertex ids, stopping at
    the radius budget.

    Vertex ids are given in creation order, so the vertices a round creates
    form the next layer, an id range, and only its slots are unexplored.
    Round r resolves the slots of layer r - 1, the basepoint's being layer 0;
    the cover is complete once a layer has no slots, as after a round that
    creates no vertex.  Deterministic given the budgets.
    """
    space.check_scale(k)
    space.index(basepoint)
    cover = PartialCover(space, k, basepoint, ident_budget)
    layer = range(1)
    while any(cover.edges[vid] for vid in layer):
        # at the radius budget, a closure pass: the cover is also complete
        # when every frontier extension identifies with a known class
        closing = cover.frontier_radius >= radius_budget
        for vid in layer:
            for y in cover.edges[vid]:
                _resolve_slot(cover, vid, y, allow_create=not closing)
        if closing:
            cover.complete = all(None not in cover.edges[vid].values() for vid in layer)
            return cover
        cover.frontier_radius += 1
        layer = range(layer.stop, cover.num_vertices)
    cover.complete = True
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
                         "ident_budget exhausted; classes undetermined")
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
    j = downstairs.scale if isinstance(downstairs, Chain) else cover.scale
    if j < cover.scale:
        raise BadScalePair(f"chain scale {j} is coarser than cover scale {cover.scale}")
    seq = chain(cover.space, j, downstairs).seq
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


def _dot_quoted(text: str) -> str:
    """text as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cover_to_dot(cover: PartialCover) -> str:
    """Graphviz rendering with canonical representatives as labels."""
    lines = ["digraph cover {"]
    for vid in range(cover.num_vertices):
        label = _dot_quoted(",".join(str(p) for p in cover.reps[vid]))
        shape = ' shape="doublecircle"' if vid == 0 else ""
        lines.append(f"  v{vid} [label={label}{shape}];")
    for vid in range(cover.num_vertices):
        for y, target in cover.edges[vid].items():
            if target is not None:
                lines.append(f"  v{vid} -> v{target} [label={_dot_quoted(str(y))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
