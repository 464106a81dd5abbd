"""Basepointed covers at a scale, built breadth-first under explicit budgets.

A vertex of the cover is a homotopy class of scale-k chains from the
basepoint, held as its breadth-first-minimal reduced representative.  New
chains are identified against known vertices by reduced-word equality, then
by the word problem of the Tietze-reduced presentation (H1 of its residual,
rewriting, coset enumeration); an Unknown outcome marks the cover
identification-incomplete and downstream verifiers refuse to conclude rather
than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as ila
from .rips import (
    AbelianGroupInv,
    _word_trivial,
    chain_word,
    free_reduce,
    h1_pushforward,
    invert_word,
    presentation_at_scale,
    presentation_h1,
    reduce_chain,
    DEFAULT_COSET_ROWS,
)
from .spaces import (
    Chain,
    EndpointMismatch,
    FilteredSpace,
    SpaceError,
    chain_components,
    is_chain,
    subspace,
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
    """

    space: FilteredSpace
    scale: int
    basepoint: object
    ident_budget: int
    reps: list = field(default_factory=list)
    words: list = field(default_factory=list)
    endpoints: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    frontier_radius: int = 0
    complete: bool = False
    identification_incomplete: bool = False
    unknown_pairs: list = field(default_factory=list)

    def __post_init__(self):
        self.presentation = presentation_at_scale(self.space, self.scale, self.basepoint)
        if not self.reps:
            self._add_vertex((self.basepoint,))

    @property
    def num_vertices(self) -> int:
        return len(self.reps)

    def _add_vertex(self, seq) -> int:
        vid = len(self.reps)
        self.reps.append(tuple(seq))
        self.words.append(chain_word(self.presentation, Chain(self.scale, seq)))
        self.endpoints.append(seq[-1])
        self.edges.append({y: None for y in self.space.neighbors(self.scale, seq[-1])})
        return vid


def _identify(cover: PartialCover, seq, word):
    """Vertex id of an existing class equal to the given chain, or None.

    An Unknown comparison only taints the cover when the candidate is never
    certified equal to another vertex: a later certified match settles the
    earlier undecided pair through the existing vertex separations.
    """
    pending = []
    for vid in range(cover.num_vertices):
        if cover.endpoints[vid] != seq[-1]:
            continue
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


def _resolve_slot(cover: PartialCover, vid: int, y, allow_create: bool = True) -> int:
    """Fill edges[vid][y], creating a vertex for a genuinely new class.

    With allow_create False the slot is left unexplored when the extension
    does not identify with a known class; returns whether a class was created.
    """
    candidate = reduce_chain(
        cover.space, cover.scale, cover.reps[vid] + (y,)
    ).seq
    word = chain_word(cover.presentation, Chain(cover.scale, candidate))
    target = _identify(cover, candidate, word)
    created = target is None
    if created:
        if not allow_create:
            return False
        target = cover._add_vertex(candidate)
    else:
        old = cover.reps[target]
        space = cover.space
        new_key = (len(candidate), tuple(space.index(p) for p in candidate))
        old_key = (len(old), tuple(space.index(p) for p in old))
        if new_key < old_key:
            cover.reps[target] = tuple(candidate)
            cover.words[target] = word
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


def fhat(cover: PartialCover, j: int) -> frozenset:
    """Entourage basis relation on vertices induced by scale j >= k.

    Two classes are related when one extends the other by a single step
    between their endpoints and those endpoints are j-close.
    """
    if j < cover.scale:
        raise BadScalePair(f"scale {j} is coarser than the cover scale {cover.scale}")
    cover.space.check_scale(j)
    pairs = set()
    for u in range(cover.num_vertices):
        for y, v in cover.edges[u].items():
            if v is None or v == u:
                continue
            if cover.space.related(j, cover.endpoints[u], y):
                pairs.add((u, v) if u < v else (v, u))
    return frozenset(pairs)


def cover_space(cover: PartialCover) -> FilteredSpace:
    """The discovered vertices with the induced basis, as a filtered space."""
    scales = tuple(
        fhat(cover, j) for j in range(cover.scale, cover.space.depth + 1)
    )
    points = tuple(range(cover.num_vertices))
    return FilteredSpace(points, scales, hausdorff=not scales[-1])


def cover_target_space(cover: PartialCover) -> FilteredSpace:
    """The basepoint's component carrying the scales from k on."""
    component = chain_components(cover.space, cover.scale).block_of(cover.basepoint)
    sub = subspace(cover.space, component)
    scales = sub.scales[cover.scale - 1 :]
    return FilteredSpace(sub.points, scales, hausdorff=not scales[-1])


def endpoint_filtered_map(cover: PartialCover):
    """The endpoint map as a FilteredMap between the spaces above."""
    from .quotients import FilteredMap

    return FilteredMap(cover_space(cover), cover_target_space(cover),
                       tuple(cover.endpoints))


@dataclass(frozen=True)
class UcmReport:
    generates: bool
    generation_failures: tuple
    chain_lifting: bool
    lifting_witnesses: tuple
    transverse_scale: int | None
    verdict: str  # "UCM" | "NotUCM" | "Inconclusive"
    reason: str | None = None


def verify_endpoint_ucm(space: FilteredSpace, k: int, cover: PartialCover) -> UcmReport:
    """Check generation, one-step lifting and transversality for the cover.

    Only complete, fully identified covers admit a verdict; anything else is
    Inconclusive with the exhausted budget named.
    """
    if cover.identification_incomplete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "identification budget exhausted; classes undetermined")
    if not cover.complete:
        return UcmReport(False, (), False, (), None, "Inconclusive",
                         "radius budget exhausted before completion")
    component = set(chain_components(space, k).block_of(cover.basepoint))
    failures = []
    for j in range(k, space.depth + 1):
        rel = fhat(cover, j)
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
    lifting_ok = True
    witnesses = []
    for j in range(k, space.depth + 1):
        rel = fhat(cover, j)
        good = True
        for u in range(cover.num_vertices):
            for y in space.neighbors(j, cover.endpoints[u]):
                v = cover.edges[u].get(y)
                if v is None or (v != u and (min(u, v), max(u, v)) not in rel):
                    good = False
        witnesses.append(j if good else None)
        lifting_ok = lifting_ok and good
    transverse = k
    for u, v in fhat(cover, k):
        if cover.endpoints[u] == cover.endpoints[v] and u != v:
            transverse = None
            break
    for u in range(cover.num_vertices):
        for v in range(u + 1, cover.num_vertices):
            if cover.endpoints[u] == cover.endpoints[v] and cover.words[u] == cover.words[v]:
                transverse = None
    generates = not failures
    verdict = "UCM" if generates and lifting_ok and transverse is not None else "NotUCM"
    return UcmReport(generates, tuple(failures), lifting_ok, tuple(witnesses),
                     transverse, verdict)


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
