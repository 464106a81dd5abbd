"""Maps between filtered spaces and the covering-map axiom verifiers.

Every verifier here is verdict-valued: it returns a result object carrying
per-scale witnesses on success and a replayable counterexample on failure.
The two quantifier eliminations that make the checks finite are one-step
induction for chain lifting and a pair fixpoint for approximate uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spaces import (
    FilteredSpace,
    Partition,
    SpaceError,
    UnknownPoint,
    chain_components,
    is_chain,
    quotient_by_partition,
    subspace,
)


@dataclass(frozen=True)
class FilteredMap:
    """A total function between filtered spaces.

    ``assignment`` lists the image of each source point in source point
    order.  Uniform continuity is not required at construction; the
    witnesses, when they exist, are available via continuity_witnesses, and
    those of the inverse direction (source scales containing the preimage of
    a target scale) via pullback_witnesses.
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

    @classmethod
    def build(cls, source, target, mapping):
        if callable(mapping):
            assignment = tuple(mapping(p) for p in source.points)
        elif isinstance(mapping, dict):
            missing = [p for p in source.points if p not in mapping]
            if missing:
                raise SpaceError(f"assignment missing points {missing!r}")
            assignment = tuple(mapping[p] for p in source.points)
        else:
            assignment = tuple(mapping)
        return cls(source, target, assignment)

    def __call__(self, x):
        try:
            return self._map[x]
        except KeyError:
            raise UnknownPoint(x) from None

    def image_relation(self, j: int) -> frozenset:
        """f(E_j) as ordered pairs of target points, image diagonal included."""
        return frozenset(
            (self(a), self(b)) for a, b in self.source.full_relation(j)
        )

    @property
    def continuity_witnesses(self) -> tuple:
        """Per target scale, the coarsest source scale mapping into it."""
        out = []
        for k in range(1, self.target.depth + 1):
            fine = self.target.full_relation(k)
            found = None
            for j in range(1, self.source.depth + 1):
                if self.image_relation(j) <= fine:
                    found = j
                    break
            out.append(found)
        return tuple(out)

    def is_uniformly_continuous(self) -> bool:
        return all(w is not None for w in self.continuity_witnesses)

    @property
    def pullback_witnesses(self) -> tuple:
        """Per source scale e, the coarsest target scale k with f^-1(F_k) in E_e.

        None marks a source scale that no target scale pulls back into.  The
        preimage is read as the fibers over each pair of F_k, so the work is
        the size of the pullback, not the number of source pairs.
        """
        fibers = {}
        for x, y in zip(self.source.points, self.assignment):
            fibers.setdefault(y, []).append(x)
        out = []
        for e in range(1, self.source.depth + 1):
            fine = self.source.full_relation(e)
            out.append(next(
                (k for k in range(1, self.target.depth + 1)
                 if all((x, y) in fine
                        for a, b in self.target.full_relation(k)
                        for x in fibers.get(a, ())
                        for y in fibers.get(b, ()))),
                None,
            ))
        return tuple(out)


def identity_map(space: FilteredSpace) -> FilteredMap:
    return FilteredMap(space, space, tuple(space.points))


def compose(outer: FilteredMap, inner: FilteredMap) -> FilteredMap:
    if outer.source is not inner.target and outer.source != inner.target:
        raise SpaceError("maps do not compose")
    return FilteredMap(
        inner.source, outer.target, tuple(outer(y) for y in inner.assignment)
    )


@dataclass(frozen=True)
class GenerationResult:
    passed: bool
    continuity: tuple
    image_cofinal: tuple
    counterexample: dict | None = None


def check_generates(f: FilteredMap) -> GenerationResult:
    """Whether the images of the source scales form a basis for the target.

    Two finite checks: continuity witnesses exist for every target scale, and
    the image of every source scale contains some target scale (so images
    are entourages and cofinal).
    """
    continuity = f.continuity_witnesses
    cofinal = []
    for j in range(1, f.source.depth + 1):
        img = f.image_relation(j)
        found = None
        for k in range(1, f.target.depth + 1):
            if f.target.full_relation(k) <= img:
                found = k
                break
        cofinal.append(found)
    counterexample = None
    for k, w in enumerate(continuity, start=1):
        if w is None:
            counterexample = {"kind": "no_continuity_witness", "target_scale": k}
            break
    if counterexample is None:
        for j, w in enumerate(cofinal, start=1):
            if w is None:
                img = f.image_relation(j)
                missing = sorted(
                    (f.target.full_relation(f.target.depth) - img),
                    key=lambda ab: (f.target.index(ab[0]), f.target.index(ab[1])),
                )
                counterexample = {
                    "kind": "image_not_entourage",
                    "source_scale": j,
                    "missing_pair": list(missing[0]) if missing else None,
                }
                break
    passed = counterexample is None
    return GenerationResult(passed, continuity, tuple(cofinal), counterexample)


@dataclass(frozen=True)
class ChainLiftingResult:
    passed: bool
    witnesses: tuple
    counterexample: dict | None = None


def _lift_reach(f: FilteredMap, e: int, x) -> set:
    """Where a step from f(x) lifts to a scale-e step: f of x's closed neighbourhood."""
    return {f(x), *map(f, f.source.neighbors(e, x))}


def _one_step_lifts(f: FilteredMap, e: int, k: int):
    """First downstairs step at target scale k with no scale-e lift, if any."""
    for x in f.source.points:
        fx = f(x)
        reach = _lift_reach(f, e, x)
        for y in (fx,) + f.target.neighbors(k, fx):
            if y not in reach:
                return (x, y)
    return None


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


def _uniqueness_condition(f: FilteredMap, e: int, j: int, strong: bool):
    """Pair fixpoint deciding whether scale-j chains with equal images stay close.

    Starting from the diagonal, a close pair (a, b) steps to (a', b') when
    both components move one scale-j step and the images agree.  Closeness is
    judged at scale j (strong) or scale e (plain).  Returns None on success
    or a counterexample pair of chains built from the BFS parents.
    """
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
            failure = _uniqueness_condition(f, e, j, strong)
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


def strong_condition_at(f: FilteredMap, j: int) -> bool:
    """Whether scale-j chains from a common start with equal images are j-close."""
    f.source.check_scale(j)
    return _uniqueness_condition(f, j, j, strong=True) is None


def fiber_e_components(f: FilteredMap, k: int) -> Partition:
    """Scale-k components within each fiber of f; refines the fiber partition."""
    f.source.check_scale(k)
    blocks = []
    for y in f.target.points:
        fiber = [x for x in f.source.points if f(x) == y]
        if not fiber:
            continue
        sub = subspace(f.source, fiber)
        blocks.extend(chain_components(sub, k).blocks)
    order = {p: i for i, p in enumerate(f.source.points)}
    blocks.sort(key=lambda b: order[b[0]])
    return Partition(tuple(blocks))


@dataclass(frozen=True)
class QuotientSpace:
    """The source with scale-k fiber components collapsed to points.

    Block identifiers are the sorted member tuples.  ``q`` is the collapse,
    ``g`` the induced map to the target; g o q = f always holds.  When the
    strong-uniqueness hypothesis fails at k the set-level quotient is still
    returned, flagged via hypothesis_met.
    """

    base: FilteredMap
    scale: int
    blocks: Partition
    space: FilteredSpace
    q: FilteredMap
    g: FilteredMap
    hypothesis_met: bool
    singleton_property: bool | None
    q_chain_lifting: ChainLiftingResult | None


def build_fiber_quotient(f: FilteredMap, k: int) -> QuotientSpace:
    f.source.check_scale(k)
    blocks = fiber_e_components(f, k)
    qspace = quotient_by_partition(f.source, blocks)
    q = FilteredMap.build(f.source, qspace, blocks.block_of)
    g = FilteredMap.build(qspace, f.target, lambda blk: f(blk[0]))
    if compose(g, q).assignment != f.assignment:
        raise RuntimeError("the induced map does not factor f through its fiber quotient")
    hypothesis = strong_condition_at(f, k)
    singleton = None
    lifting = None
    if hypothesis:
        singleton = all(
            set(q(x)) == {x}.union(
                y for y in f.source.neighbors(k, x) if f(y) == f(x)
            )
            for x in f.source.points
        )
        lifting = check_chain_lifting(q)
    return QuotientSpace(f, k, blocks, qspace, q, g, hypothesis, singleton, lifting)


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


def factor_and_verify(f: FilteredMap, e: int) -> FactorizationReport:
    """Factor f through a fiber quotient and verify the covering axioms.

    The finer scale F is searched finest-first below scale e among those where
    the strong uniqueness condition holds; the induced map g is then checked
    to generate, lift chains and admit the pushed scale as transverse.
    """
    f.source.check_scale(e)
    pre = {
        "generates": check_generates(f).passed,
        "chain_lifting": check_chain_lifting(f).passed,
        "strong_approx_uniqueness": check_approx_uniqueness(f, strong=True).passed,
    }
    if not all(pre.values()):
        return FactorizationReport(pre, None, None, None, None, None, None,
                                   "preconditions_failed")
    chosen = None
    for j in range(f.source.depth, e - 1, -1):
        if strong_condition_at(f, j):
            chosen = j
            break
    if chosen is None:
        return FactorizationReport(pre, None, None, None, None, None, None,
                                   "no_admissible_scale")
    quotient = build_fiber_quotient(f, chosen)
    bounded = all(
        f.source.related(chosen, a, b)
        for block in quotient.blocks.blocks
        for a in block
        for b in block
    )
    g_gen = check_generates(quotient.g)
    g_lift = check_chain_lifting(quotient.g)
    transverse = None
    qspace = quotient.space
    if all(
        u == v
        for u, v in qspace.scale_pairs(chosen)
        if quotient.g(u) == quotient.g(v)
    ):
        transverse = chosen
    ok = bounded and g_gen.passed and g_lift.passed and transverse is not None
    return FactorizationReport(
        pre, chosen, quotient, bounded, g_gen, g_lift, transverse,
        "UCM" if ok else "verification_failed",
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
