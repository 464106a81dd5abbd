"""Maps between filtered spaces and the covering-map axiom verifiers.

Every verifier here is verdict-valued: it returns a result object carrying
per-scale witnesses on success and a replayable counterexample on failure.
The two quantifier eliminations that make the checks finite are one-step
induction for chain lifting and a pair fixpoint for approximate uniqueness.
The fixpoint is a multi-source ``spaces.breadth_first`` search over pairs of
source points, started from the whole diagonal; fiber components are a
search over the scale-k steps whose ends have equal images.  Fiber and orbit
quotients share one block projection, ``collapse``.  Each fact about a map
is memoized on it, so verifiers that read one another's facts share them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .spaces import (
    FilteredSpace,
    Partition,
    SpaceError,
    UnknownPoint,
    _owned,
    breadth_first,
    components,
    is_chain,
)


@dataclass(frozen=True)
class FilteredMap:
    """A total function between filtered spaces.

    ``assignment`` lists the image of each source point in source point
    order.  Uniform continuity is not required at construction; the
    witnesses, when they exist, are available via continuity_witnesses, and
    those of the inverse direction (source scales containing the preimage of
    a target scale) via pullback_witnesses.  The verifiers' facts about it
    live in ``_memo`` (see ``spaces._owned``); a memoized fiber quotient
    refers back to it, so only the cyclic collector frees it.
    """

    source: FilteredSpace
    target: FilteredSpace
    assignment: tuple

    def __post_init__(self):
        if len(self.assignment) != len(self.source.points):
            raise SpaceError("assignment must cover every source point")
        for y in self.assignment:
            self.target.index(y)
        object.__setattr__(
            self, "_map", dict(zip(self.source.points, self.assignment))
        )
        object.__setattr__(self, "_memo", {})

    def __call__(self, x):
        try:
            return self._map[x]
        except KeyError:
            raise UnknownPoint(x) from None

    @_owned
    def image_relation(self, j: int) -> dict:
        """f(E_j) per target point a: the union of f(E_j[x]) over the fiber of a."""
        out = {a: set() for a in self.target.points}
        for x, a in zip(self.source.points, self.assignment):
            out[a].update(map(self, self.source.closed(j, x)))
        return out

    @property
    def continuity_witnesses(self) -> tuple:
        """Per target scale, the coarsest source scale mapping into it."""
        images = [self.image_relation(j) for j in range(1, self.source.depth + 1)]
        return tuple(
            next((j for j, img in enumerate(images, start=1)
                  if all(ys <= self.target.closed(k, a) for a, ys in img.items())), None)
            for k in range(1, self.target.depth + 1)
        )

    def is_uniformly_continuous(self) -> bool:
        return all(w is not None for w in self.continuity_witnesses)

    @property
    def pullback_witnesses(self) -> tuple:
        """Per source scale e, the coarsest target scale k with f^-1(F_k) in E_e.

        None marks a source scale that no target scale pulls back into.  The
        preimage is read per source point x as the fibers over F_k[f(x)], so
        the work is the size of the pullback, not the number of source pairs.
        """
        fibers = {}
        for x, y in zip(self.source.points, self.assignment):
            fibers.setdefault(y, []).append(x)
        source, target = self.source, self.target
        return tuple(
            next((k for k in range(1, target.depth + 1)
                  if all(z in source.closed(e, x)
                         for x, a in zip(source.points, self.assignment)
                         for b in target.closed(k, a)
                         for z in fibers.get(b, ()))),
                 None)
            for e in range(1, source.depth + 1)
        )


def collapse(space: FilteredSpace, blocks: Partition) -> FilteredMap:
    """The projection of space onto the blocks of a partition of its points, in
    partition order; two blocks are related at scale j when some members are."""
    index = {b: i for i, b in enumerate(blocks.blocks)}
    scales = []
    for pairs in space.scales:
        ends = ((blocks.block_of(a), blocks.block_of(b)) for a, b in pairs)
        scales.append(frozenset((u, v) if index[u] < index[v] else (v, u)
                                for u, v in ends if index[u] != index[v]))
    target = FilteredSpace(blocks.blocks, tuple(scales), hausdorff=not scales[-1])
    return FilteredMap(space, target, tuple(map(blocks.block_of, space.points)))


@dataclass(frozen=True)
class GenerationResult:
    passed: bool
    continuity: tuple
    image_cofinal: tuple
    counterexample: dict | None = None


@_owned
def check_generates(f: FilteredMap) -> GenerationResult:
    """Whether the images of the source scales form a basis for the target.

    Two finite checks: continuity witnesses exist for every target scale, and
    the image of every source scale contains some target scale (so images
    are entourages and cofinal).
    """
    continuity = f.continuity_witnesses
    target = f.target
    images = [f.image_relation(j) for j in range(1, f.source.depth + 1)]
    cofinal = tuple(
        next((k for k in range(1, target.depth + 1)
              if all(target.closed(k, a) <= img[a] for a in target.points)), None)
        for img in images
    )
    counterexample = None
    for k, w in enumerate(continuity, start=1):
        if w is None:
            counterexample = {"kind": "no_continuity_witness", "target_scale": k}
            break
    if counterexample is None:
        for j, w in enumerate(cofinal, start=1):
            if w is None:
                img = images[j - 1]
                missing = next(
                    ([a, b] for a in target.points
                     for b in target.sort_points(target.closed(target.depth, a))
                     if b not in img[a]),
                    None,
                )
                counterexample = {
                    "kind": "image_not_entourage",
                    "source_scale": j,
                    "missing_pair": missing,
                }
                break
    passed = counterexample is None
    return GenerationResult(passed, continuity, cofinal, counterexample)


@dataclass(frozen=True)
class ChainLiftingResult:
    passed: bool
    witnesses: tuple
    counterexample: dict | None = None


def _lift_reach(f: FilteredMap, e: int, x) -> set:
    """Where a step from f(x) lifts to a scale-e step: f of x's closed neighbourhood."""
    return set(map(f, f.source.closed(e, x)))


def _one_step_lifts(f: FilteredMap, e: int, k: int):
    """First downstairs step at target scale k with no scale-e lift, if any."""
    for x in f.source.points:
        fx = f(x)
        reach = _lift_reach(f, e, x)
        for y in (fx,) + f.target.neighbors(k, fx):
            if y not in reach:
                return (x, y)
    return None


@_owned
def check_chain_lifting(f: FilteredMap) -> ChainLiftingResult:
    """One-step chain lifting, which gives chain lifting by induction.

    For each source scale e the verifier looks for a target scale whose
    one-step extensions downstairs always lift to a scale-e step upstairs
    from every point; the coarsest such target scale is the witness.
    """
    witnesses = []
    counterexample = None
    for e in range(1, f.source.depth + 1):
        found = None
        last_failure = None
        for k in range(1, f.target.depth + 1):
            failure = _one_step_lifts(f, e, k)
            if failure is None:
                found = k
                break
            last_failure = failure
        witnesses.append(found)
        if found is None and counterexample is None:
            x, y = last_failure
            counterexample = {
                "kind": "unliftable_step",
                "source_scale": e,
                "target_scale": f.target.depth,
                "from_point": x,
                "step_to": y,
            }
    passed = counterexample is None
    return ChainLiftingResult(passed, tuple(witnesses), counterexample)


@dataclass(frozen=True)
class ApproxUniquenessResult:
    passed: bool
    mode: str
    witnesses: tuple
    counterexample: dict | None = None


@_owned
def _uniqueness_condition(f: FilteredMap, j: int, close_scale: int):
    """Pair fixpoint deciding whether scale-j chains with equal images stay close.

    A multi-source breadth-first search from the whole diagonal: a pair
    (a, b) steps to (a', b') when both components move one scale-j step and
    the images agree.  Closeness is judged at close_scale, j (strong) or e
    (plain), so plain at e = j is strong at j.  Returns None on success, or
    the first non-close pair found as two chains read back through the parents.
    """
    source = f.source

    def steps(pair):
        a, b = pair
        ends = {}  # b's scale-j ends grouped by image, each group in order
        for b2 in (b,) + source.neighbors(j, b):
            ends.setdefault(f(b2), []).append(b2)
        return [(a2, b2) for a2 in (a,) + source.neighbors(j, a)
                for b2 in ends.get(f(a2), ())]

    parent = {}
    for a, b in breadth_first(((p, p) for p in source.points), steps, parent):
        if a != b and not source.related(close_scale, a, b):
            left, right = [], []
            cur = (a, b)
            while cur is not None:
                left.append(cur[0])
                right.append(cur[1])
                cur = parent[cur]
            return left[::-1], right[::-1]
    return None


def check_approx_uniqueness(f: FilteredMap, strong: bool = False) -> ApproxUniquenessResult:
    """Approximate uniqueness of chain lifts, plain or strong.

    Plain asks, for every scale E, for a finer scale F such that F-chains
    from a common start with identical images are E-close; strong asks for
    F-closeness.  Witnesses record the coarsest F that works.
    """
    mode = "strong" if strong else "plain"
    witnesses = []
    counterexample = None
    for e in range(1, f.source.depth + 1):
        found = None
        last = None
        for j in range(e, f.source.depth + 1):
            failure = _uniqueness_condition(f, j, j if strong else e)
            if failure is None:
                found = j
                break
            last = (j, failure)
        witnesses.append(found)
        if found is None and counterexample is None:
            j, (left, right) = last
            counterexample = {
                "kind": "non_close_lifts",
                "mode": mode,
                "source_scale": e,
                "finer_scale": j,
                "chains": [list(left), list(right)],
                "violation_index": len(left) - 1,
            }
    passed = counterexample is None
    return ApproxUniquenessResult(passed, mode, tuple(witnesses), counterexample)


def counterexample_holds(f: FilteredMap, ce: dict) -> bool:
    """Whether a recorded counterexample ce still refutes f, by its own "kind".

    "unliftable_step": f(from_point) steps to step_to at target_scale, and no
    source_scale step from from_point maps there.  "non_close_lifts": two
    finer_scale chains from one point with equal images end apart (at
    finer_scale if strong, else at source_scale).  Points must be f's points.
    """
    if ce["kind"] == "unliftable_step":
        x, y = ce["from_point"], ce["step_to"]
        return (f.target.related(ce["target_scale"], f(x), y)
                and y not in _lift_reach(f, ce["source_scale"], x))
    if ce["kind"] == "non_close_lifts":
        left, right = ce["chains"]
        j = ce["finer_scale"]
        close_scale = j if ce["mode"] == "strong" else ce["source_scale"]
        return (is_chain(f.source, j, left)
                and is_chain(f.source, j, right)
                and left[0] == right[0]
                and all(f(a) == f(b) for a, b in zip(left, right))
                and not f.source.related(close_scale, left[-1], right[-1]))
    raise ValueError(f"no checker for counterexample kind {ce['kind']!r}")


@_owned
def fiber_e_components(f: FilteredMap, k: int) -> Partition:
    """Scale-k components within each fiber of f; refines the fiber partition."""
    source = f.source
    source.check_scale(k)

    def fiber_steps(x):
        fx = f(x)
        return [y for y in source.neighbors(k, x) if f(y) == fx]

    return Partition(components(source.points, fiber_steps, source.index))


@dataclass(frozen=True)
class QuotientSpace:
    """The source with scale-k fiber components collapsed to points.

    Block identifiers are the sorted member tuples.  The quotient is fixed
    by the map and its blocks, so it is stored as them: ``g_assignment``
    lists the image under f of each block, in block order.  ``base`` (f),
    ``space`` (the quotient space), ``q`` (the collapse) and ``g`` (the
    induced map to the target) are read off those on demand, once per map
    and scale, and are not written in reports; g o q = f always holds.  When
    the strong-uniqueness hypothesis fails at k the set-level quotient is
    still returned, flagged via hypothesis_met, and the singleton property
    is None.  When it holds, the singleton property (each block is the fiber
    part of its members' scale-k neighbourhoods) follows.  The chain lifting
    of q is None here; only the factorization, which writes it, checks it.
    """

    _base: FilteredMap
    scale: int
    blocks: Partition
    g_assignment: tuple
    hypothesis_met: bool
    singleton_property: bool | None
    q_chain_lifting: ChainLiftingResult | None

    @property
    def base(self) -> FilteredMap:
        return self._base

    @property
    def q(self) -> FilteredMap:
        return _fiber_factors(self._base, self.scale)[0]

    @property
    def space(self) -> FilteredSpace:
        return self.q.target

    @property
    def g(self) -> FilteredMap:
        return _fiber_factors(self._base, self.scale)[1]


@_owned
def _fiber_factors(f: FilteredMap, k: int) -> tuple:
    """(q, g): the collapse onto the scale-k fiber quotient and the map it induces."""
    quotient = build_fiber_quotient(f, k)
    q = collapse(f.source, quotient.blocks)
    return q, FilteredMap(q.target, f.target, quotient.g_assignment)


@_owned
def build_fiber_quotient(f: FilteredMap, k: int) -> QuotientSpace:
    """The fiber quotient of f at scale k: see QuotientSpace."""
    f.source.check_scale(k)
    blocks = fiber_e_components(f, k)
    images = tuple(f(block[0]) for block in blocks.blocks)
    if any(f(x) != y for block, y in zip(blocks.blocks, images) for x in block):
        raise RuntimeError("the induced map does not factor f through its fiber quotient")
    if _uniqueness_condition(f, k, k) is not None:
        return QuotientSpace(f, k, blocks, images, False, None, None)
    # A scale-k chain within x's fiber and the constant chain at x have equal
    # images, so strong uniqueness at k puts the chain's end within scale k
    # of x: x's block is the fiber part of its closed neighbourhood.
    return QuotientSpace(f, k, blocks, images, True, True, None)


@dataclass(frozen=True)
class FactorizationReport:
    preconditions: dict
    chosen_scale: int | None
    quotient: QuotientSpace | None
    fibers_bounded: bool | None
    g_generates: GenerationResult | None
    g_chain_lifting: ChainLiftingResult | None
    transverse_scale: int | None
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "UCM"


def factor_and_verify(f: FilteredMap) -> FactorizationReport:
    """Factor f through a fiber quotient and verify the covering axioms.

    Once the preconditions hold, f factors through its fiber quotient at the
    finest scale and the verdict is UCM.  The factorization f = g o q is
    fixed by f and the blocks, so the report holds the quotient as its
    blocks and g's images (see QuotientSpace), not as spaces and maps.  The
    chain lifting of q and of the induced map g are computed for their
    witnesses; bounded fibers, generation by g, the lifting of g and the
    transverse scale follow from the construction, with their reasons beside
    them.
    """
    generation = check_generates(f)
    pre = {
        "generates": generation.passed,
        "chain_lifting": check_chain_lifting(f).passed,
        "strong_approx_uniqueness": check_approx_uniqueness(f, strong=True).passed,
    }
    if not all(pre.values()):
        return FactorizationReport(pre, None, None, None, None, None, None,
                                   "preconditions_failed")
    # The strong condition at scale j does not depend on the source scale e it
    # is searched for, so the precondition's search at e = depth, which tries
    # only j = depth, shows that it holds at the finest scale.
    chosen = f.source.depth
    quotient = build_fiber_quotient(f, chosen)
    quotient = replace(quotient, q_chain_lifting=check_chain_lifting(quotient.q))
    return FactorizationReport(
        pre, chosen, quotient,
        # every block lies in its members' closed neighbourhoods (the
        # singleton property at the finest scale)
        True,
        # g o q = f and q maps each source scale onto the quotient's, so g has
        # f's image relations and generates exactly when f does
        generation,
        # f lifts chains and g o q = f, and q maps each closed scale-e
        # neighbourhood into its block's: a lift for f from any member of a
        # block is one for g, so this check passes
        check_chain_lifting(quotient.g),
        # blocks related at the chosen scale with equal g-images would be
        # one fiber component
        chosen,
        "UCM",
    )


@dataclass(frozen=True)
class GucmReport:
    generates: GenerationResult
    chain_lifting: ChainLiftingResult
    approx_uniqueness: ApproxUniquenessResult
    complete_fibers: str
    passed: bool


def verify_gucm(f: FilteredMap) -> GucmReport:
    """Generalized uniform covering axioms: generation, lifting, uniqueness.

    Fibers of maps between finite spaces are finite, hence complete; this is
    recorded rather than checked, and generalized path lifting is subsumed.
    """
    gen = check_generates(f)
    lift = check_chain_lifting(f)
    uniq = check_approx_uniqueness(f, strong=False)
    passed = gen.passed and lift.passed and uniq.passed
    return GucmReport(gen, lift, uniq, "finite", passed)
