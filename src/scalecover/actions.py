"""Finite group actions on filtered spaces and their quotient towers.

Groups are materialized as explicit permutation lists (no stabilizer chains:
desk-scale instances stay transparent enumerations).  A permutation is a
tuple of point indices in the space's point order.  Every smallness property
is decided by finite enumeration over scale pairs, elements and points, with
replayable witnesses.  A scale subgroup is generated by the elements moving
some point within a relation.  ``_scale_subgroup`` keeps one record per
relation on the action (neighbourhoods, those elements, the subgroup and its
orbit partition), so each is closed and its orbits computed once, and the
diagnosis, scale quotients and tower all read it.  An invariant entourage is
the closure of a scale's pairs under a generating set (Seress, *Permutation
Group Algorithms*, 2003, ch. 2-3).

The quotient tower computes only what can fail: the injectivity of the
group and of the space into their threads, faithfulness and proper
discontinuity of each induced action, and the backward entourage test.
Every stage subgroup is generated by the elements moving some point within
a G-invariant scale, so it is normal, and the subgroups nest as the scales
do.  The remaining fields (normality, consistency of the induced action,
the homomorphism, surjectivity onto threads, part (c), part (d) and the
forward entourage test) follow from those two facts and are read off the
construction, each with its reason beside it.  The subgroups nest because
every space's scales do: saturations, and so the moving elements, shrink as
the scale gets finer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .quotients import FilteredMap, collapse
from .spaces import FilteredSpace, Partition, SpaceError, _owned, breadth_first

DEFAULT_GROUP_BOUND = 10_000


class NotAPermutation(SpaceError):
    pass


class GroupTooLarge(SpaceError):
    pass


def _compose(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True)
class ActionSpec:
    """A finite permutation action with its element list materialized.

    Elements are distinct permutations of the points, so the action is
    faithful.  Its diagnosis, saturations, scale subgroups and scale
    quotients are memoized on the instance (see ``spaces._owned``), so a
    command that reports a scale quotient and the tower computes each once,
    and they live as long as the action does.
    """

    space: FilteredSpace
    generators: tuple
    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    def apply(self, perm, point):
        return self.space.points[perm[self.space.index(point)]]

    @property
    def identity(self):
        return tuple(range(len(self.space.points)))

    def perm_of_points(self, perm) -> tuple:
        return tuple(self.space.points[perm[i]] for i in range(len(perm)))


def _closure(gens, n: int, bound: int) -> tuple:
    """Sorted elements of the group the permutations gens generate on n points.

    A breadth-first search from the identity; GroupTooLarge as soon as it
    has found more than bound elements.
    """
    found = {}
    for _ in breadth_first((tuple(range(n)),),
                           lambda h: [_compose(g, h) for g in gens], found):
        if len(found) > bound:
            raise GroupTooLarge(f"closure exceeded {bound} elements")
    return tuple(sorted(found))


def close_group(space: FilteredSpace, generators,
                bound: int = DEFAULT_GROUP_BOUND) -> ActionSpec:
    """Close a generator list into the full element list.

    Generators are given as point arrays: entry i is the image of the i-th
    point of the space.
    """
    n = len(space.points)
    gens = []
    for raw in generators:
        if len(raw) != n:
            raise NotAPermutation(f"generator {raw!r} has wrong length")
        perm = tuple(space.index(p) for p in raw)
        if sorted(perm) != list(range(n)):
            raise NotAPermutation(f"generator {raw!r} is not a bijection")
        gens.append(perm)
    return ActionSpec(space, tuple(gens), _closure(gens, n, bound))


def _saturate(space: FilteredSpace, gens, k: int) -> frozenset:
    """The images of the scale-k pairs under the group the permutations gens
    generate, as normalized pairs: the scale-k pairs closed under gens."""
    pts, index = space.points, space.index

    def images(pair):
        i, j = index(pair[0]), index(pair[1])
        return [(pts[g[i]], pts[g[j]]) if g[i] < g[j] else (pts[g[j]], pts[g[i]])
                for g in gens]

    return frozenset(breadth_first(space.scale_pairs(k), images, {}))


@_owned
def saturate_invariant(action: ActionSpec, k: int) -> frozenset:
    """Smallest invariant entourage containing scale k, as normalized pairs."""
    return _saturate(action.space, action.generators, k)


def _orbits(space: FilteredSpace, elements) -> Partition:
    """The orbits of a group given by all its elements, each sorted, in order
    of their first points."""
    pts = space.points
    seen = set()
    orbits = []
    for i in range(len(pts)):
        if i not in seen:
            orbit = sorted({g[i] for g in elements})
            seen.update(orbit)
            orbits.append(tuple(pts[j] for j in orbit))
    return Partition(tuple(orbits))


class _ScaleSubgroup(NamedTuple):
    near: list  # per point index i, the indices related to i, and i itself
    seeds: list  # the elements moving some point i into near[i], in element order
    subgroup: tuple  # the sorted elements of the group the seeds generate
    orbits: Partition  # the subgroup's orbits


@_owned
def _scale_subgroup(action: ActionSpec, pairs: frozenset) -> _ScaleSubgroup:
    """The subgroup generated by the elements moving some point within the
    relation pairs (normalized pairs), with what diagnosis and quotients read
    of it.  Every scale subgroup is closed here, once per relation."""
    space = action.space
    near = [{i} for i in range(len(space.points))]
    for a, b in pairs:
        i, j = space.index(a), space.index(b)
        near[i].add(j)
        near[j].add(i)
    seeds = [g for g in action.elements if any(g[i] in near[i] for i in range(len(g)))]
    subgroup = _closure(seeds, len(near), len(action.elements))
    return _ScaleSubgroup(near, seeds, subgroup, _orbits(space, subgroup))


@dataclass(frozen=True)
class ActionDiagnosis:
    neutral: dict
    upd: dict
    ss_bounded_orbits: dict
    equicontinuity: dict
    ss_equicontinuity: dict

    def all_neutral(self) -> bool:
        return all(v is not None for v in self.neutral["witnesses"].values())

    def has_ss_bounded_orbits(self) -> bool:
        return all(v is not None for v in self.ss_bounded_orbits["witnesses"].values())

    def is_equicontinuous(self) -> bool:
        return all(v is not None for v in self.equicontinuity["witnesses"].values())


@_owned
def diagnose_action(action: ActionSpec) -> ActionDiagnosis:
    """Decide the smallness properties of the action.

    Neutrality is tabulated over all scale pairs by a per-point orbit test;
    uniform proper discontinuity reports the finest qualifying scale plus
    per-scale offenders; the small-scale properties report the coarsest
    witness scale.
    """
    space = action.space
    m = space.depth
    pts = space.points

    # (e, f) is neutral when every g.y within scale f of x has y within
    # scale e of the orbit of x, i.e. G.N_f[x] lies in N_e[G.x] for every x.
    # The action need not be an isometry, so G.N_f[x] is not N_f[G.x].
    indices = range(len(pts))
    record = {k: _scale_subgroup(action, space.scale_pairs(k)) for k in range(1, m + 1)}
    closed = {k: r.near for k, r in record.items()}
    orbit_of = _orbits(space, action.elements).block_of
    orbits = [set(map(space.index, orbit_of(p))) for p in pts]
    moved_nbhd = {
        k: [set().union(*(orbits[z] for z in closed[k][i])) for i in indices]
        for k in range(1, m + 1)
    }
    orbit_nbhd = {
        k: [set().union(*(closed[k][o] for o in orbits[i])) for i in indices]
        for k in range(1, m + 1)
    }
    neutral_table = {}
    for e in range(1, m + 1):
        for f in range(1, m + 1):
            bad = [i for i in indices if not moved_nbhd[f][i] <= orbit_nbhd[e][i]]
            witness = None
            for g in action.elements if bad else ():
                inverse = _inverse(g)
                for i in bad:
                    ys = {inverse[z] for z in closed[f][i]} - orbit_nbhd[e][i]
                    if ys:
                        witness = {"x": pts[i], "g": action.perm_of_points(g),
                                   "y": pts[min(ys)]}
                        break
                if witness:
                    break
            neutral_table[(e, f)] = {"holds": not bad, "counterexample": witness}
    neutral_witness = {
        e: next((f for f in range(1, m + 1) if neutral_table[(e, f)]["holds"]), None)
        for e in range(1, m + 1)
    }

    # the first element other than the identity that moves a point within k
    upd_per_scale = {
        k: next(({"g": action.perm_of_points(g), "x": pts[i]}
                 for g in record[k].seeds if g != action.identity
                 for i in indices if g[i] in closed[k][i]), None)
        for k in range(1, m + 1)
    }
    qualifying = tuple(k for k in range(1, m + 1) if upd_per_scale[k] is None)
    upd = {
        "qualifying_scales": qualifying,
        "scale": max(qualifying) if qualifying else None,
        "counterexamples": {k: v for k, v in upd_per_scale.items() if v is not None},
    }

    ssbo = {"witnesses": {}, "counterexamples": {}}
    for e in range(1, m + 1):
        # the coarsest f whose orbits are e-bounded, else the failure at the finest f
        for f in range(1, m + 1):
            bad = next(({"scale_f": f, "orbit_of": orb[0], "pair": [a, b]}
                        for orb in record[f].orbits.blocks for a in orb for b in orb
                        if b not in space.closed(e, a)), None)
            if bad is None:
                break
        ssbo["witnesses"][e] = None if bad else f
        if bad:
            ssbo["counterexamples"][e] = bad

    # saturations and scales are compared as normalized pairs: adding the
    # diagonal and the mirrored pairs to both sides changes no inclusion
    saturated = {k: saturate_invariant(action, k) for k in range(1, m + 1)}
    ss_saturated = {k: _saturate(space, record[k].seeds, k) for k in range(1, m + 1)}
    equi = {
        "witnesses": {},
        "failures": {},
        "invariant_scales": tuple(
            k for k in range(1, m + 1) if saturated[k] == space.scale_pairs(k)
        ),
    }
    for e in range(1, m + 1):
        found = next(
            (f for f in range(1, m + 1) if saturated[f] <= space.scale_pairs(e)), None
        )
        equi["witnesses"][e] = found
        if found is None:
            equi["failures"][e] = {
                "uninvariant_pairs": sorted(
                    map(list, saturated[e] - space.scale_pairs(e))
                )
            }

    ss_equi = {"witnesses": {
        e: next((f for f in range(1, m + 1) if ss_saturated[f] <= space.scale_pairs(e)),
                None)
        for e in range(1, m + 1)
    }}

    return ActionDiagnosis(
        {"pair_table": neutral_table, "witnesses": neutral_witness},
        upd, ssbo, equi, ss_equi,
    )


@dataclass(frozen=True)
class QuotientAction:
    """The induced action of G/G_F on X/G_F at an invariant scale."""

    scale: int
    saturated: bool
    subgroup: tuple
    space: FilteredSpace
    projection: FilteredMap
    cosets: tuple
    induced_elements: tuple
    normal: bool
    induced_faithful: bool
    upd_holds: bool
    stabilizer_is_subgroup: bool


@_owned
def quotient_at_scale(action: ActionSpec, k: int) -> QuotientAction:
    """Quotient by the scale-k subgroup, with the discontinuity verification.

    Non-invariant scales are saturated first and the substitution recorded.
    The subgroup N is normal by construction (see below), so ``normal`` is
    True: g.(N.x) = N.(g.x) for every g in a coset, the cosets act
    consistently on the orbits, and each coset's induced permutation is read
    off its first element.  Faithfulness of the induced action and proper
    discontinuity below the pushed relation are computed from the induced
    permutations.
    """
    space = action.space
    space.check_scale(k)
    pairs = saturate_invariant(action, k)
    was_saturated = pairs != space.scale_pairs(k)
    # The saturated scale is G-invariant, so if g moves x within it, h g h^-1
    # moves h x within it: the generators are closed under conjugation and
    # the subgroup they generate is normal.  At an invariant scale this is
    # the record diagnose_action read.
    near, _, sub, blocks = _scale_subgroup(action, pairs)
    projection = collapse(space, blocks)
    qpoints = blocks.blocks
    qindex = {b: i for i, b in enumerate(qpoints)}

    cosets = []
    assigned = set()
    for g in action.elements:
        if g in assigned:
            continue
        coset = tuple(sorted(_compose(g, s) for s in sub))
        assigned.update(coset)
        cosets.append(coset)
    cosets = tuple(sorted(cosets))
    induced = tuple(
        tuple(qindex[blocks.block_of(action.apply(coset[0], block[0]))] for block in qpoints)
        for coset in cosets
    )

    # g fixes every orbit exactly when its coset induces the identity, and the
    # subgroup's own coset always does: the stabilizer of the orbits is the
    # subgroup exactly when no other coset does.
    identity_perm = tuple(range(len(qpoints)))
    identity_coset = next(i for i, c in enumerate(cosets) if action.identity in c)
    stabilizer_is_subgroup = not any(
        perm == identity_perm for i, perm in enumerate(induced) if i != identity_coset)

    block_at = [qindex[blocks.block_of(p)] for p in space.points]
    pushed = {(block_at[i], block_at[j]) for i, near_i in enumerate(near) for j in near_i}
    upd = not any(
        (bi, perm[bi]) in pushed
        for i, perm in enumerate(induced) if i != identity_coset
        for bi in range(len(qpoints))
    )
    return QuotientAction(
        k, was_saturated, sub, projection.target, projection, cosets, induced,
        True, stabilizer_is_subgroup, upd, stabilizer_is_subgroup,
    )


@dataclass(frozen=True)
class ActionTowerReport:
    hypotheses: dict
    stages: tuple
    part_a: dict
    part_b: dict
    part_c: dict
    part_d: dict
    verdict: str

    @property
    def passed(self):
        return self.verdict == "verified"


def action_tower_verify(action: ActionSpec) -> ActionTowerReport:
    """Verify the reconstruction of a faithful action from its scale quotients.

    Over the saturated invariant basis this builds the coset tower and the
    orbit-space tower.  Three fields can fail, and they are computed: the
    group and the space map injectively into their threads (parts (a) and
    (b)), and each scale of the space has a pullback witness in the finest
    stage projection (part (b)'s ``entourage_backward``).  The stage
    subgroups are normal and nested, and every other field, of parts (a) to
    (d), follows from that: it is written as True with its reason beside it.
    """
    space = action.space
    diag = diagnose_action(action)
    hypotheses = {
        # a group given by its distinct permutations acts faithfully
        "faithful": True,
        "hausdorff": space.hausdorff,
        "equicontinuous": diag.is_equicontinuous(),
        "ss_bounded_orbits": diag.has_ss_bounded_orbits(),
    }
    if not all(hypotheses.values()):
        failing = ",".join(k for k, v in hypotheses.items() if not v)
        return ActionTowerReport(hypotheses, (), {}, {}, {}, {},
                                 f"HypothesisUnmet:{failing}")

    quotients = [quotient_at_scale(action, k) for k in range(1, space.depth + 1)]
    stages = tuple(
        {
            "scale": q.scale,
            "saturated": q.saturated,
            "group_size": len(q.cosets),
            "space_size": len(q.space.points),
        }
        for q in quotients
    )

    # The finest stage subgroup and its orbits lie in every other stage's, so
    # two elements (points) have the same thread exactly when they have the
    # same finest coset (orbit).
    part_a = {
        # every stage subgroup is normal: the coset product is the group law
        "homomorphism": True,
        "injective": len(quotients[-1].subgroup) == 1,
        # every thread is the thread of the first member of a finest coset
        "surjective_onto_threads": True,
    }
    part_b = {
        "injective": len(quotients[-1].space.points) == len(space.points),
        # every thread is the thread of the first member of a finest orbit
        "surjective_onto_threads": True,
        # an orbit projection maps scale j into scale j
        "entourage_forward": True,
        # the finest orbits pull back the fewest pairs: a scale with a pullback
        # witness in some stage has one in the finest
        "entourage_backward": all(
            w is not None for w in quotients[-1].projection.pullback_witnesses),
    }
    part_c = {
        # stage orbits lie inside G-orbits, so the class threads are the
        # G-orbits' projections
        "well_defined": True,
        "bijective": True,
        # the backward telescoping solution realizes every class thread
        "telescoping_threads": True,
    }
    # each coarser coset holds the first member of a finer coset within it
    part_d = {"all_surjective": True}

    ok = part_a["injective"] and part_b["injective"] and part_b["entourage_backward"]
    return ActionTowerReport(hypotheses, stages, part_a, part_b, part_c, part_d,
                             "verified" if ok else "discrepancy")
