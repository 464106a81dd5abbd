"""Finite group actions on filtered spaces and their quotient towers.

Groups are materialized as explicit permutation lists (no stabilizer chains:
desk-scale instances stay transparent enumerations).  A permutation is a
tuple of point indices in the space's point order.  Every smallness property
is decided by finite enumeration over scale pairs, elements and points, with
replayable witnesses.  A group is closed over only the seeds that enlarge
it, at most log2 of its order (as in Dimino's algorithm; Butler, LNCS 559,
1991), and its orbits and cosets are ``spaces.components`` searches over
those seeds.  A scale subgroup is generated by the elements moving some point
within a relation.  ``_scale_subgroup`` keeps one record per relation on the
action (neighbourhoods, the seeds, the subgroup and its orbit partition), so
each is closed and its orbits computed once, and the diagnosis, scale
quotients and tower all read it.  An invariant entourage is the closure of a
scale's pairs under a generating set (Seress, *Permutation Group
Algorithms*, 2003, ch. 2-3).

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
from .spaces import (FilteredSpace, Partition, SpaceError, _owned, breadth_first, coarsest,
                     components)

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

    def perm_of_points(self, perm) -> tuple:
        return tuple(self.space.points[perm[i]] for i in range(len(perm)))


def _closure(gens, n: int, bound: int) -> tuple:
    """The sorted elements of the group the permutations gens generate on n
    points, and the gens that enlarge it: each is kept when the group of the
    kept ones, searched breadth first from the identity, does not hold it, so
    each at least doubles that group.  GroupTooLarge as soon as a search has
    found more than bound elements, the identity included."""
    kept, found = [], {}
    for g in (tuple(range(n)), *gens):
        if g not in found:
            kept.append(g)
            found = {}
            for _ in breadth_first(kept[:1], lambda h: [_compose(s, h) for s in kept], found):
                if len(found) > bound:
                    raise GroupTooLarge(f"closure exceeded {bound} elements")
    return tuple(sorted(found)), tuple(kept[1:])


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
    return ActionSpec(space, tuple(gens), _closure(gens, n, bound)[0])


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


def _orbits(space: FilteredSpace, gens) -> Partition:
    """The orbits of the group the permutations gens generate, each sorted,
    in order of their first points."""
    pts = space.points
    orbits = components(range(len(pts)), lambda i: [g[i] for g in gens])
    return Partition(tuple(tuple(pts[i] for i in orbit) for orbit in orbits))


def _cosets(elements, gens) -> tuple:
    """The cosets gN of the group N that gens generate, by right products."""
    return components(elements, lambda h: [_compose(h, s) for s in gens])


class _ScaleSubgroup(NamedTuple):
    near: list  # per point index i, the indices related to i, and i itself
    seeds: tuple  # of the elements moving some point i into near[i], those kept by _closure
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
    moving = [g for g in action.elements if any(g[i] in near[i] for i in range(len(g)))]
    subgroup, seeds = _closure(moving, len(near), len(action.elements))
    return _ScaleSubgroup(near, seeds, subgroup, _orbits(space, seeds))


@dataclass(frozen=True)
class ActionDiagnosis:
    neutral: dict
    upd: dict
    ss_bounded_orbits: dict
    equicontinuity: dict
    ss_equicontinuity: dict

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
    orbit_of = _orbits(space, action.generators).block_of
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
    # a pair fails exactly when it has a counterexample: the inverses of the
    # elements reach every point of G.N_f[x]
    neutral_witness = {
        e: coarsest(range(1, m + 1), lambda f: neutral_table[(e, f)]["counterexample"])[0]
        for e in range(1, m + 1)
    }

    # the first element other than the identity moving a point within k: the first seed
    upd_per_scale = {
        k: next(({"g": action.perm_of_points(g), "x": pts[i]}
                 for g in record[k].seeds for i in indices if g[i] in closed[k][i]), None)
        for k in range(1, m + 1)
    }
    qualifying = tuple(k for k in range(1, m + 1) if upd_per_scale[k] is None)
    upd = {
        "qualifying_scales": qualifying,
        "scale": max(qualifying) if qualifying else None,
        "counterexamples": {k: v for k, v in upd_per_scale.items() if v is not None},
    }

    def unbounded(e, f):
        """The first pair of a scale-f orbit that is not e-close, or None."""
        return next(({"scale_f": f, "orbit_of": orb[0], "pair": [a, b]}
                     for orb in record[f].orbits.blocks for a in orb for b in orb
                     if b not in space.closed(e, a)), None)

    ssbo = {"witnesses": {}, "counterexamples": {}}
    for e in range(1, m + 1):
        # the coarsest f whose orbits are e-bounded, else the failure at the finest f
        ssbo["witnesses"][e], bad = coarsest(range(1, m + 1), lambda f: unbounded(e, f))
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
        equi["witnesses"][e] = coarsest(
            range(1, m + 1), lambda f: saturated[f] - space.scale_pairs(e) or None)[0]
        if equi["witnesses"][e] is None:
            equi["failures"][e] = {
                "uninvariant_pairs": sorted(
                    map(list, saturated[e] - space.scale_pairs(e))
                )
            }

    ss_equi = {"witnesses": {
        e: coarsest(range(1, m + 1), lambda f: ss_saturated[f] - space.scale_pairs(e) or None)[0]
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
    near, seeds, sub, blocks = _scale_subgroup(action, pairs)
    projection = collapse(space, blocks)
    qpoints = blocks.blocks
    qindex = {b: i for i, b in enumerate(qpoints)}
    cosets = _cosets(action.elements, seeds)
    induced = tuple(
        tuple(qindex[blocks.block_of(action.apply(coset[0], block[0]))] for block in qpoints)
        for coset in cosets
    )

    # g fixes every orbit exactly when its coset induces the identity, and the
    # subgroup's own coset, the first, always does: the stabilizer of the
    # orbits is the subgroup exactly when no other coset does.
    stabilizer_is_subgroup = tuple(range(len(qpoints))) not in induced[1:]

    block_at = [qindex[blocks.block_of(p)] for p in space.points]
    pushed = {(block_at[i], block_at[j]) for i, near_i in enumerate(near) for j in near_i}
    upd = not any((bi, perm[bi]) in pushed
                  for perm in induced[1:] for bi in range(len(qpoints)))
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
