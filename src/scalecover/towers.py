"""Truncated inverse systems of filtered spaces and of f.g. abelian groups.

A tower is a finite descending chain X_1 <- X_2 <- ... <- X_n; its limit is
the space of threads.  Every lim/lim1 statement is certified only at the
declared truncation: extrapolating beyond it requires an explicit
stabilization declaration on the tower, and no nonvanishing claim is ever
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as ila
from .quotients import (
    FilteredMap,
    check_approx_uniqueness,
    collapse,
    fiber_e_components,
    verify_gucm,
)
from .rips import AbelianGroupInv
from .spaces import FilteredSpace, SpaceError, coarsest

DEFAULT_PRODUCT_BOUND = 200_000
_PATTERN_HORIZON = 64  # powers of a repeated bonding compared before giving up

STABILIZATIONS = ("none", "bijective_beyond", "pattern_repeats")


class ProductTooLarge(SpaceError):
    pass


class InvalidTower(SpaceError):
    pass


@dataclass(frozen=True)
class SpaceTower:
    """Spaces X_1..X_n with uniformly continuous bondings X_{i+1} -> X_i."""

    spaces: tuple
    bondings: tuple
    stabilization: str = "none"

    def __post_init__(self):
        if len(self.bondings) != len(self.spaces) - 1:
            raise InvalidTower("need exactly one bonding map per adjacent pair")
        for i, f in enumerate(self.bondings):
            if f.source != self.spaces[i + 1] or f.target != self.spaces[i]:
                raise InvalidTower(f"bonding {i} does not map X_{i + 2} to X_{i + 1}")
            if not f.is_uniformly_continuous():
                raise InvalidTower(f"bonding {i} is not uniformly continuous")
        if self.stabilization not in STABILIZATIONS:
            raise InvalidTower(f"unknown stabilization {self.stabilization!r}")

    @property
    def length(self) -> int:
        return len(self.spaces)

    def composite(self, deeper: int, shallower: int):
        """The map X_deeper -> X_shallower (1-based, deeper >= shallower)."""
        if not 1 <= shallower <= deeper <= self.length:
            raise InvalidTower(f"bad index pair ({deeper}, {shallower})")
        points = self.spaces[deeper - 1].points
        values = list(points)
        for i in range(deeper - 2, shallower - 2, -1):
            values = [self.bondings[i](v) for v in values]
        return dict(zip(points, values))


@dataclass(frozen=True)
class LimitSpace:
    """Thread space of a tower; thread t projects to stage i as t[i - 1]."""

    space: FilteredSpace


def assemble_limit_space(tower: SpaceTower,
                         product_bound: int = DEFAULT_PRODUCT_BOUND) -> LimitSpace:
    """Threads of the tower with the diagonal-ordered preimage filtration.

    Thread scales are cumulative intersections of projection preimages taken
    in the order (space + scale) ascending, then space; equal consecutive
    relations are merged.  An empty limit is a legal outcome.  A thread's
    coordinates are its projections, so only the thread space is returned.

    Only pairs related at the first agenda entry (stage 1, scale 1) are ever
    built: each thread is paired with the later threads lying over the closed
    neighbourhood of its stage point, and the later entries filter that set.
    ``product_bound`` caps both threads times length and the number of those
    seeded pairs, which is counted before any pair is built.
    """
    n = tower.length
    top = tower.spaces[n - 1]
    if len(top.points) * max(n, 1) > product_bound:
        raise ProductTooLarge(
            f"{len(top.points)} threads of length {n} exceed bound {product_bound}"
        )
    stages = [tower.composite(n, i) for i in range(1, n + 1)]
    threads = [tuple(stages[i][x] for i in range(n)) for x in top.points]
    order = {
        t: tuple(tower.spaces[i].index(t[i]) for i in range(n)) for t in threads
    }
    threads.sort(key=order.__getitem__)
    tindex = {t: pos for pos, t in enumerate(threads)}

    agenda = sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, tower.spaces[i - 1].depth + 1)),
        key=lambda ij: (ij[0] + ij[1], ij[0]),
    )
    current = set()
    if agenda:
        i, j = agenda[0]
        sp = tower.spaces[i - 1]
        over = {p: [] for p in sp.points}
        for t in threads:
            over[t[i - 1]].append(t)
        seeded = sum(len(ts) * (len(ts) - 1) // 2 for ts in over.values()) + sum(
            len(over[a]) * len(over[b]) for a, b in sp.scale_pairs(j)
        )
        if seeded > product_bound:
            raise ProductTooLarge(
                f"{seeded} thread pairs related at stage {i} scale {j} "
                f"exceed bound {product_bound}"
            )
        current = {
            (t, s)
            for t in threads
            for p in sp.closed(j, t[i - 1])
            for s in over[p]
            if tindex[s] > tindex[t]
        }
    scales = []
    for i, j in agenda:
        closed = tower.spaces[i - 1].closed
        current = {(t, s) for t, s in current if s[i - 1] in closed(j, t[i - 1])}
        normalized = frozenset(current)
        if not scales or scales[-1] != normalized:
            scales.append(normalized)
    if not scales:
        scales = [frozenset()]
    return LimitSpace(FilteredSpace(tuple(threads), tuple(scales), hausdorff=not scales[-1]))


@dataclass(frozen=True)
class StrongMlReport:
    entries: tuple
    passed: bool


def strong_ml_check(tower: SpaceTower) -> StrongMlReport:
    """Per index, the shallowest deeper stage whose image lies in the limit's.

    Every thread is the thread of a top point, so the limit's image in X_alpha
    is the top stage's, and the top stage is a witness for every index.  A
    shallower stage's image contains the top's, so inclusion forces equality
    (the paper's remark), and a truncated tower always satisfies the strong
    Mittag-Leffler condition: only the witnesses are computed.
    """
    n = tower.length
    entries = []
    for alpha in range(1, n + 1):
        projected = set(tower.composite(n, alpha).values())
        witness, _ = coarsest(range(alpha, n + 1), lambda beta: set(
            tower.composite(beta, alpha).values()) - projected or None)
        entries.append(
            {"index": alpha, "witness": witness, "image_equals_projection": True}
        )
    return StrongMlReport(tuple(entries), True)


# ---------------------------------------------------------------------------
# reconstruction of a map from its fiber-quotient tower


@dataclass(frozen=True)
class ReconstructionReport:
    hypotheses: dict
    basis: tuple
    stage_sizes: tuple
    injective: bool | None
    uniformly_continuous: bool | None
    embedding: bool | None
    surjective: bool | None
    verdict: str

    @property
    def passed(self):
        return self.verdict == "verified"


def quotient_tower_reconstruct(f: FilteredMap) -> ReconstructionReport:
    """Rebuild the source from its tower of fiber quotients and verify the
    canonical comparison map q to the limit is a uniform equivalence.

    Hard hypotheses: the covering checks and strong approximate uniqueness.
    The source hausdorff flag is recorded; when it is absent the injectivity
    outcome is still checked rather than presumed.  The stages are the
    projections onto the scale-j fiber components over the strong basis:
    the scales j that are their own strong witness, which end at the finest
    scale.  Their blocks nest as the scales do, so a point's thread is the
    thread of its finest block.  The two fields that can fail are read off
    the finest stage: q is injective when it has one block per point, and an
    embedding when its projection has every pullback witness.  The other two
    are written as True with their reason beside them.
    """
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
    # the strong search at e = j tries (j, j) first, so j is its own witness
    # exactly when the strong condition holds at j
    basis = tuple(j for j, w in enumerate(strong.witnesses, start=1) if w == j)
    stages = [collapse(f.source, fiber_e_components(f, j)) for j in basis]
    finest = stages[-1]
    injective = len(finest.target.points) == len(f.source.points)
    # blocks related in the finest stage lie in blocks related in every stage,
    # so the finest limit scale pulls back as the finest stage's does
    embedding = all(w is not None for w in finest.pullback_witnesses)
    return ReconstructionReport(
        hypotheses, basis, tuple(len(q.target.points) for q in stages),
        injective,
        # q maps source scale j into every stage's scale j, so the finest
        # source scale into every limit scale
        True,
        embedding,
        # every thread is the thread of a finest block
        True,
        "verified" if injective and embedding else "discrepancy",
    )


# ---------------------------------------------------------------------------
# abelian towers


def group_dim(g: AbelianGroupInv) -> int:
    return len(g.torsion) + g.rank


def group_relations(g: AbelianGroupInv) -> list:
    return list(g.torsion) + [0] * g.rank


def reduce_element(g: AbelianGroupInv, vec) -> tuple:
    """Canonical coordinates: torsion entries into [0, d), free entries exact."""
    vec = list(vec)
    if len(vec) != group_dim(g):
        raise SpaceError(f"element has {len(vec)} coordinates, expected {group_dim(g)}")
    out = []
    for i, d in enumerate(g.torsion):
        out.append(vec[i] % d)
    out.extend(vec[len(g.torsion):])
    return tuple(out)


@dataclass(frozen=True)
class TowerAb:
    """Groups Z^r + torsion in Smith form with integer bonding matrices.

    Coordinates list torsion positions first, then free positions; matrix i
    sends stage i+1 into stage i and must respect the torsion relations.
    """

    groups: tuple
    matrices: tuple
    stabilization: str = "none"

    def __post_init__(self):
        if len(self.matrices) != len(self.groups) - 1:
            raise InvalidTower("need exactly one matrix per adjacent pair")
        if self.stabilization not in STABILIZATIONS:
            raise InvalidTower(f"unknown stabilization {self.stabilization!r}")
        for i, mat in enumerate(self.matrices):
            tgt, src = self.groups[i], self.groups[i + 1]
            rows, cols = ila.shape(mat)
            if any(len(row) != cols for row in mat):
                raise InvalidTower(f"matrix {i} is ragged: rows of lengths "
                                   f"{[len(row) for row in mat]}")
            if rows != group_dim(tgt) or cols != group_dim(src):
                raise InvalidTower(
                    f"matrix {i} is {rows}x{cols}, expected {group_dim(tgt)}x{group_dim(src)}"
                )
            for a, d in enumerate(src.torsion):
                image = [d * mat[b][a] for b in range(rows)]
                for b, db in enumerate(group_relations(tgt)):
                    if db and image[b] % db:
                        raise InvalidTower(f"matrix {i} breaks torsion relation at ({b},{a})")
                    if not db and image[b]:
                        raise InvalidTower(f"matrix {i} sends torsion into a free row")

    @property
    def length(self):
        return len(self.groups)

    def apply(self, i: int, vec) -> tuple:
        """Image in stage i (1-based) of an element of stage i+1."""
        return reduce_element(
            self.groups[i - 1], ila.matvec([list(r) for r in self.matrices[i - 1]], list(vec))
        )


@dataclass(frozen=True)
class TelescopeResult:
    mode: str
    solved: bool
    h: tuple | None
    failed_step: int | None
    verified: bool


def telescoping_solve(tab: TowerAb, gs, mode: str) -> TelescopeResult:
    """Solve g_i = h_i - psi_{i+1}(h_{i+1}) for i = 1..n-1.

    Backward fixes h_n = 0 and back-substitutes, which always succeeds on a
    truncation; forward fixes h_1 = 0 and needs an exact integer solve of
    psi(h_{i+1}) = h_i - g_i at every step, reporting the first unsolvable
    one.  Solutions are re-verified against the defining identity exactly.
    """
    n = tab.length
    if len(gs) != n - 1:
        raise SpaceError(f"need {n - 1} group elements, got {len(gs)}")
    gs = [reduce_element(tab.groups[i], g) for i, g in enumerate(gs)]
    if mode == "backward":
        h = [None] * n
        h[n - 1] = reduce_element(tab.groups[n - 1], [0] * group_dim(tab.groups[n - 1]))
        for i in range(n - 2, -1, -1):
            image = tab.apply(i + 1, h[i + 1])
            h[i] = reduce_element(
                tab.groups[i], [a + b for a, b in zip(gs[i], image)]
            )
    elif mode == "forward":
        h = [None] * n
        h[0] = reduce_element(tab.groups[0], [0] * group_dim(tab.groups[0]))
        for i in range(n - 1):
            target = [a - b for a, b in zip(h[i], gs[i])]
            mat = ila.with_relation_columns(tab.matrices[i], group_relations(tab.groups[i]))
            sol = ila.solve_integer(mat, target)
            if sol is None:
                return TelescopeResult("forward", False, None, i + 1, False)
            h[i + 1] = reduce_element(
                tab.groups[i + 1], sol[: group_dim(tab.groups[i + 1])]
            )
    else:
        raise SpaceError(f"unknown mode {mode!r}")
    verified = all(
        gs[i]
        == reduce_element(
            tab.groups[i],
            [a - b for a, b in zip(h[i], tab.apply(i + 1, h[i + 1]))],
        )
        for i in range(n - 1)
    )
    return TelescopeResult(mode, True, tuple(h), None, verified)


@dataclass(frozen=True)
class Lim1Verdict:
    trivial: bool
    certificate: str | None
    reason: str | None
    detail: dict


def lim1_verdict(tab: TowerAb) -> Lim1Verdict:
    """Certified lim1 triviality, or an honest Undetermined.

    Surjective bondings certify triviality outright.  Otherwise a declared
    stabilization can certify the Mittag-Leffler condition: image lattices are
    compared through their Smith invariant factors, iterating the repeated
    matrix up to a horizon when the pattern is declared to repeat.
    """
    surjective = all(
        ila.is_surjective_onto(
            [list(r) for r in tab.matrices[i]], group_relations(tab.groups[i])
        )
        for i in range(tab.length - 1)
    )
    if surjective:
        return Lim1Verdict(True, "surjectivity", None,
                           {"checked_matrices": tab.length - 1})
    if tab.stabilization == "none":
        return Lim1Verdict(False, None,
                           "no stabilization declared; truncation cannot certify lim1",
                           {})
    if tab.stabilization == "bijective_beyond":
        return Lim1Verdict(True, "mittag_leffler",
                           None,
                           {"stabilized_by": tab.length,
                            "reason": "bondings are bijections beyond the truncation"})
    # pattern_repeats: iterate the last matrix on the deepest group
    last = tab.matrices[-1]
    rows, cols = ila.shape(last)
    if rows != cols or tab.groups[-1] != tab.groups[-2]:
        return Lim1Verdict(False, None,
                           "declared repetition is not an endomorphism", {})
    g = tab.groups[-1]
    relations = group_relations(g)
    # L_t = M^t Z^r + R shrinks as t grows, since M^(t+1) x = M^t (M x).  Nested
    # lattices are equal exactly when their invariant factors are: those give
    # the rank, and the index of each in its saturation as their product.
    power = ila.eye(rows)
    previous = ila.invariant_factors(ila.with_relation_columns(power, relations))
    for t in range(1, _PATTERN_HORIZON + 1):
        power = ila.matmul([list(r) for r in last], power)
        form = ila.invariant_factors(ila.with_relation_columns(power, relations))
        if form == previous:
            return Lim1Verdict(True, "mittag_leffler", None,
                               {"stabilized_at_power": t})
        previous = form
    return Lim1Verdict(False, None,
                       "image lattices still shrinking at the declared horizon",
                       {"first_unstable_index": tab.length,
                        "horizon": _PATTERN_HORIZON})
