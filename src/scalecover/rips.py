"""Rips 2-skeletons and the homotopy theory of chains at a fixed scale.

Only the 2-skeleton is ever built, in one walk of the scale index in point
order: homotopy of edge paths in a simplicial complex is decided by its
2-skeleton.  Chains map to words over the non-tree edges of a breadth-first
spanning forest, read off one letter index that maps each directed edge to
its signed generator; two chains with common endpoints are homotopic at the
scale exactly when the combined word dies in the edge-path group.  H1 comes
from the abelianized relators as sparse rows, reduced in two phases.  First
a signed union-find contracts the rows of one or two unit entries: such a
row kills its generator or merges one generator into another, up to sign,
and only the rows that held it are resolved again (the reduction step of
computational homology: Kaczynski, Mischaikow and Mrozek, Computational
Homology, ch. 4).  Then unit pivots eliminate generators from the rows left,
and only the core they leave goes through a Smith form.  Each kill, merge
and pivot is a step ``(g, solution)``: g equals the sum of its solution in
H1, so a word's H1 coordinates are the sums of its letters' coordinates,
read back through the steps.

A Tietze reduction of the relator words, whose substitution is expanded once
at the end, serves the word problem and the buckets of covers, which read H1
classes off its residual group (``_residual``).  The word problem is decided
in a fixed order: free reduction, the relator-free free group, H1
separation, Tietze reduction with bounded rewriting by rules harvested from
the short residual relators, and the projection onto the free factor F of
the surviving generators that no residual relator holds.  The group is then
F * G, G presented by the residual relators, and what is left is one
free-product normal form whose G syllables are multiplied in G's coset table
(Lyndon and Schupp, Combinatorial Group Theory, ch. IV.1).  The answer is a
certified Yes/No, or an Unknown when the enumeration runs out of its
ident_budget; nothing is ever guessed.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from . import intlinalg as ila
from .coset import DEFAULT_COSET_ROWS, coset_enumeration
from .spaces import (
    Chain,
    EndpointMismatch,
    FilteredSpace,
    SpaceError,
    _owned,
    breadth_first,
    chain,
)

# the word problem's _simplified stops eliminating once the relators have grown
# by this many letters; H1 does not depend on it
TIETZE_LETTER_CAP = 10_000
_REWRITE_STEPS = 10_000  # the most rule applications _rewrite makes to one word
# _rewriting_rules harvests only residual relators of at most this many
# letters: each yields O(1) rules of O(1) letters, so the rules stay linear in
# the residual's letters, where all relators would give cubically many
_RULE_RELATOR_LETTERS = 16


class OutsideComponent(SpaceError):
    pass


class NotALoop(SpaceError):
    pass


# ---------------------------------------------------------------------------
# skeletons


@dataclass(frozen=True)
class Rips2Skeleton:
    scale: int
    vertices: tuple
    edges: tuple
    triangles: tuple


def rips_2_skeleton(space: FilteredSpace, k: int) -> Rips2Skeleton:
    """Edges are scale-k pairs, triangles the pairwise scale-k triples.

    One walk of the scale index (``space.scale_index(k)``) in point order:
    an edge (a, b) takes b from a's later neighbours, and a triangle
    (a, b, c) of it takes c from b's later neighbours, kept when they lie in
    a's closed neighbourhood ``space.closed(k, a)``.  Neighbours come in
    point order, so edges and triangles do too.
    """
    closed, adjacency = space.scale_index(k)
    position = {p: i for i, p in enumerate(space.points)}.__getitem__
    later = {}
    for i, a in enumerate(space.points):
        near = adjacency[a]
        later[a] = near[bisect_right(near, i, key=position):]
    edges, triangles = [], []
    for a, after_a in later.items():
        near_a = closed[a]
        for b in after_a:
            edges.append((a, b))
            triangles += [(a, b, c) for c in later[b] if c in near_a]
    return Rips2Skeleton(k, space.points, tuple(edges), tuple(triangles))


# ---------------------------------------------------------------------------
# words


def free_reduce(word) -> tuple:
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> tuple:
    return tuple(-letter for letter in reversed(word))


def _cyclic_reduce(word):
    word = free_reduce(word)
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j]


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class GroupPresentation:
    """Edge-path presentation of the scale-k loop classes over a spanning forest.

    With a basepoint the forest is a breadth-first tree of the basepoint's
    component; without one (``basepoint`` None) it has one breadth-first tree
    per component, rooted at the component's first point.  Generators are the
    non-tree edges, oriented from the smaller point; relators read each
    triangle boundary through the tree collapse.  ``parent`` maps each point
    to its tree parent (None at a root), and ``letters[a][b]`` is the letter
    of the step from a to b along a skeleton edge of the component: 0 along a
    tree edge, and g from a to b and -g back for generator g = (a, b).
    Words are relative to this specific forest and are not canonical across
    different forests.  The reductions of the relators are memoized on the
    instance (see ``spaces._owned``), so they live as long as it does.
    """

    space: FilteredSpace
    scale: int
    basepoint: object
    component: tuple
    tree_edges: tuple
    generators: tuple
    relators: tuple
    parent: dict = field(default=None, compare=False, repr=False)
    letters: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.component))
        object.__setattr__(self, "_memo", {})

    def fundamental_loop(self, g: int) -> tuple:
        """The loop root -> a -> b -> root of generator g = (a, b) in its tree."""
        def to_root(p):
            path = [p]
            while self.parent[path[-1]] is not None:
                path.append(self.parent[path[-1]])
            return path

        a, b = self.generators[g - 1]
        return tuple(reversed(to_root(a))) + tuple(to_root(b))


@lru_cache(maxsize=None)
def presentation_at_scale(space: FilteredSpace, k: int, basepoint) -> GroupPresentation:
    """Presentation of the basepoint's component at scale k.

    With basepoint None it presents the whole space over a spanning forest
    with one breadth-first tree per component.  The tree edges and the
    generators are the skeleton's edges in the component, in its order; an
    edge is a tree edge when one end is the other's parent.  Each triangle's
    relator reads its three sides off one letter index, which the
    presentation keeps for ``chain_word``.
    """
    space.check_scale(k)
    if basepoint is None:
        roots = space.points
    else:
        space.index(basepoint)
        roots = (basepoint,)
    successors = space.scale_index(k)[1].__getitem__
    parent = {}
    for root in roots:
        if root not in parent:
            for _ in breadth_first((root,), successors, parent):
                pass
    skeleton = rips_2_skeleton(space, k)
    letters = {p: {} for p in parent}
    tree_edges, generators = [], []
    for a, b in skeleton.edges:
        if a in letters:
            if parent[b] == a or parent[a] == b:
                tree_edges.append((a, b))
                letters[a][b] = letters[b][a] = 0
            else:
                generators.append((a, b))
                g = len(generators)
                letters[a][b], letters[b][a] = g, -g
    relators = []
    for a, b, c in skeleton.triangles:
        if a in letters:
            # the three sides are distinct edges, so the word is already reduced
            x, y, z = letters[a][b], letters[b][c], letters[c][a]
            relators.append((x, y, z) if x and y and z else tuple(filter(None, (x, y, z))))
    component = space.points if basepoint is None else space.sort_points(parent)
    return GroupPresentation(space, k, basepoint, component,
                             tuple(tree_edges), tuple(generators), tuple(relators), parent,
                             letters)


def chain_word(pres: GroupPresentation, c) -> tuple:
    """Reduced word of signed generator letters of a chain, read against the
    presentation's spanning tree.

    For loops at the basepoint, equal words imply homotopic chains at the
    presentation's scale.
    """
    seq = chain(pres.space, pres.scale, c).seq
    for p in seq:
        if p not in pres._members:
            raise OutsideComponent(f"point {p!r} is outside the basepoint's component")
    return _chain_letters(pres, seq)


def _chain_letters(pres: GroupPresentation, seq: tuple) -> tuple:
    """``chain_word`` for a point sequence already known to be a chain at the
    presentation's scale inside the basepoint's component."""
    letters = pres.letters
    return free_reduce(filter(None, [letters[a][b] for a, b in zip(seq, seq[1:]) if a != b]))


# ---------------------------------------------------------------------------
# homology of the 2-skeleton


@dataclass(frozen=True)
class AbelianGroupInv:
    """A finitely generated abelian group by rank and invariant factors."""

    rank: int
    torsion: tuple

    def __post_init__(self):
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be at least 2")


def h1_at_scale(space: FilteredSpace, k: int, basepoint=None) -> AbelianGroupInv:
    """H1 of the scale-k 2-skeleton; restricted to a component if given."""
    return presentation_h1(presentation_at_scale(space, k, basepoint))


def h1_class(space: FilteredSpace, k: int, seq) -> tuple:
    """Image of a loop in H1 coordinates; zero is necessary for nulhomotopy.

    Coordinates list the torsion positions of the Smith form first (reduced
    into [0, d)), then its free positions, then one per free survivor of
    the elimination (see ``_pres_abelian``).  They are read in the
    elimination's basis: which generators survive as free, and so the
    coordinates themselves, are not canonical; whether a class is zero, and
    whether two classes agree, are.
    """
    pres = presentation_at_scale(space, k, None)
    loop = seq if isinstance(seq, Chain) else Chain(k, seq)
    word = chain_word(pres, loop)
    if loop.start != loop.end:
        raise NotALoop(f"chain from {loop.start!r} to {loop.end!r} is not a loop")
    return _h1_coords(pres, word)


def presentation_h1(pres: GroupPresentation) -> AbelianGroupInv:
    """Abelianization of the presented group: H1 of the presented components.

    Contraction and unit pivots keep the abelianized group, so this is the
    Smith form of the core left by ``_pres_abelian`` plus one free summand
    per free survivor.  Which generators survive as free depends on the
    elimination's order and is not canonical; the invariants do not.
    """
    _, _, _, _, moduli, free = _pres_abelian(pres)
    return AbelianGroupInv(moduli.count(0) + len(free), tuple(d for d in moduli if d))


def _unit_pivot(row):
    """The smallest generator with entry 1 or -1 in a sparse row, or None."""
    return min((g for g, a in row.items() if a == 1 or a == -1), default=None)


def _contract(relators):
    """Phase one of ``_abelianize``: relators contracted through a signed
    union-find over the generators.

    ``link`` maps a signed letter that is no longer a root to a letter equal
    to it in H1, or to 0 when it is zero; ``link[-l]`` is always
    ``-link[l]``.  A pass resolves words onto the roots as sparse
    ``{generator: exponent sum}`` rows.  A row with one unit entry kills its
    root, the step ``(g, {})``; a row with two unit entries merges the
    smaller root g into the larger h with the sign s the row forces, the
    step ``(g, {h: s})``; either way the row is used up.  The first pass
    reads every relator, and the second every row it kept.  From then on
    ``holders`` lists the rows that held each root, and a pass reads again
    only the rows that held a root that died in the pass before, so a row is
    read once per root of it that dies: a chain of kills against the row
    order costs one row per kill, not one pass over all rows.  The rows
    returned are resolved onto the final roots, and each has three or more
    roots or a non-unit entry.  Returns (rows, link, steps).
    """
    link, steps = {}, []

    def find(letter):
        """The root letter equal to letter, or 0; the path is compressed."""
        path = []
        while letter in link:
            path.append(letter)
            letter = link[letter]
        for p in path:
            link[p], link[-p] = letter, -letter
        return letter

    # a pass after the first reads its rows as words again
    rows, holders = [None] * len(relators), defaultdict(list)
    batch, first = enumerate(relators), True
    while True:
        died = []
        for i, word in batch:
            row = {}
            for letter in word:
                if letter in link:
                    letter = link[letter]
                    if letter in link:
                        letter = find(letter)
                    if not letter:
                        continue
                if letter > 0:
                    v = row.get(letter, 0) + 1
                else:
                    letter, v = -letter, row.get(-letter, 0) - 1
                if v:
                    row[letter] = v
                else:
                    del row[letter]
            if len(row) == 1:
                (g, a), = row.items()
                if a == 1 or a == -1:
                    link[g] = link[-g] = 0
                    steps.append((g, {}))
                    died.append(g)
                    rows[i] = None
                    continue
            elif len(row) == 2:
                (g, a), (h, b) = row.items()
                if (a == 1 or a == -1) and (b == 1 or b == -1):
                    if g > h:
                        g, h = h, g
                    # a g + b h = 0 with units a and b: g = -ab h
                    link[g], link[-g] = -a * b * h, a * b * h
                    steps.append((g, {h: -a * b}))
                    died.append(g)
                    rows[i] = None
                    continue
            rows[i] = row
            if not first:
                for g in row:
                    holders[g].append(i)
        if first:
            again = [i for i, row in enumerate(rows) if row] if died else ()
            first = False
        else:
            again = sorted({i for g in died for i in holders.pop(g, ()) if rows[i]})
        if not again:
            break
        batch = [(i, [g if a > 0 else -g for g, a in rows[i].items() for _ in range(abs(a))])
                 for i in again]
    return [row for row in rows if row], link, steps


def _abelianize(generators, relators):
    """Abelianized relators reduced in two phases, then a Smith form of what
    is left.

    Each relator, a word over the given generators, is a sparse row
    ``{generator: exponent sum}``.  Phase one (``_contract``) resolves the
    rows through a signed union-find over the generators: a row with one
    unit entry kills its generator, and a row with two unit entries merges
    the smaller into the larger; then the next pass reads again the rows
    that held it, until no row has one or two unit entries.  Phase
    two pivots on the rows left, over the roots: an index maps each root to
    the rows that hold it, and while some row has a unit entry, the shortest
    such row by ``(len, row index)`` is solved for its smallest unit
    generator g, and the solution is substituted into the rows that hold g.
    Survivors that occur in no residual row are free summands; only the
    others, the core, go through ``smith_normal_form``.

    A step ``(g, {h: coefficient})`` says that g equals the sum of its
    solution in H1.  A kill of phase one is ``(g, {})`` and a merge into h
    is ``(g, {h: 1 or -1})``; a pivot of phase two solves its row.  A
    solution's generators are survivors or eliminated by later steps.

    Returns (steps, core, u, kept, moduli, free): the steps in order, the
    core generators by column, the core's row transform, the diagonal
    positions that are not 1 (torsion first, then free) and their diagonal
    entries, 0 when free, and the free survivors in the order of generators.
    """
    rows, link, steps = _contract(relators)
    rows_with = {g: set() for g in generators if g not in link}
    for i, row in enumerate(rows):
        for g in row:
            rows_with[g].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    while heap:
        n, i = heapq.heappop(heap)
        row = rows[i]
        if len(row) != n or (g := _unit_pivot(row)) is None:
            continue  # a stale entry, or a row with no unit entry
        a = row.pop(g)
        rows[i] = {}
        touched = rows_with.pop(g)
        touched.discard(i)
        solution = {h: -a * b for h, b in row.items()}
        steps.append((g, solution))
        for h in row:
            rows_with[h].discard(i)
        for j in touched:
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
    # rows_with has lost every eliminated generator: it keys the survivors
    free = tuple(g for g in rows_with if g not in column)
    return (tuple(steps), tuple(core), tuple(map(tuple, u)), kept,
            tuple(diag[i] for i in kept), free)


def _coordinates(abelian):
    """Each generator's H1 coordinates as a sparse dict, and the moduli, from
    an ``_abelianize`` result.

    A core generator's coordinates are its column of the row transform at
    the kept positions, a free survivor's a unit vector after those, and an
    eliminated generator's the sum of its solution's, taken in reverse
    elimination order so that the solution's generators are known.
    """
    steps, core, u, kept, moduli, free = abelian
    moduli += (0,) * len(free)
    coords = {g: {len(kept) + q: 1} for q, g in enumerate(free)}
    for c, g in enumerate(core):
        coords[g] = {p: r for p, i in enumerate(kept) if (r := _reduce(u[i][c], moduli[p]))}
    for g, solution in reversed(steps):
        # each partial sum is reduced, and an entry that reaches 0 is dropped
        coords[g] = total = {}
        for h, b in solution.items():
            for p, v in coords[h].items():
                d = moduli[p]
                v = total.get(p, 0) + b * v
                if d:
                    v %= d
                if v:
                    total[p] = v
                else:
                    total.pop(p, None)
    return coords, moduli


@_owned
def _pres_abelian(pres: GroupPresentation):
    """``_abelianize`` of the whole presentation: all its generators and
    relators."""
    return _abelianize(range(1, len(pres.generators) + 1), pres.relators)


@_owned
def _h1_basis(pres: GroupPresentation):
    """``_coordinates`` of the whole presentation's generators."""
    return _coordinates(_pres_abelian(pres))


def _h1_coords(pres, word) -> tuple:
    """H1 coordinates of a word over the presentation's generators."""
    coords, moduli = _h1_basis(pres)
    total = [0] * len(moduli)
    for letter in word:
        if letter > 0:
            for p, v in coords[letter].items():
                total[p] += v
        else:
            for p, v in coords[-letter].items():
                total[p] -= v
    return tuple(map(_reduce, total, moduli))


def _reduce(value, modulus):
    return value % modulus if modulus else value


def h1_pushforward(source: GroupPresentation, target: GroupPresentation) -> tuple:
    """Matrix of H1(source) -> H1(target) for one space, target scale coarser.

    Source basis element i at a Smith position is column i of the inverse of
    the core's row transform, a sum of core generators' fundamental loops;
    at a free survivor's position it is that generator's loop.  Each loop is
    read in the target.
    """
    _, core, u, kept, _, free = _pres_abelian(source)
    uinv = ila.unimodular_inverse(u) if kept else []
    basis = [[(g, uinv[c][i]) for c, g in enumerate(core)] for i in kept]
    basis += [[(g, 1)] for g in free]
    images = {g: _h1_coords(target, chain_word(target, source.fundamental_loop(g)))
              for g in (core if kept else ()) + free}
    return tuple(
        tuple(_reduce(sum(n * images[g][r] for g, n in element), d) for element in basis)
        for r, d in enumerate(_h1_basis(target)[1]))


# ---------------------------------------------------------------------------
# chain reduction


def reduce_chain(space: FilteredSpace, k: int, c) -> Chain:
    """Greedy homotopy reduction: drop interior points spanned at scale k.

    Each deletion is a homotopy across a triangle or a backtrack, so the
    result is homotopic to the input at scale k and never longer; on return
    no interior point is removable.
    """
    seq = list(chain(space, k, c).seq)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            if seq[i] == seq[i + 1]:
                del seq[i + 1]
                changed = True
            else:
                i += 1
        for i in range(1, len(seq) - 1):
            if seq[i + 1] in space.closed(k, seq[i - 1]):
                del seq[i]
                changed = True
                break
    return Chain(k, tuple(seq))


# ---------------------------------------------------------------------------
# word triviality machinery


def _rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


@_owned
def _simplified(pres: GroupPresentation):
    """Tietze elimination for the word problem: returns (substitution,
    residual relators).

    The substitution rewrites original letters into words over the surviving
    generators, those g with ``subst[g] == (g,)``; the residual relators are
    words over the survivors and present the same group.  Rewriting, coset
    enumeration and the buckets of covers (``_residual``) read them; the H1
    of ``analyze`` and of bonding maps is read off ``_pres_abelian`` instead.

    The relators form a set of non-empty cyclically reduced words.  Each step
    takes the smallest relator by ``(len, r)`` that has a letter occurring
    once, solves it for the first such letter's generator g, and substitutes
    the solution for g in the relators.  The step is incremental: an
    occurrence index maps each generator to the live relators whose words
    hold it, so only those are rewritten; a heap of ``(len, r)`` holds the
    relators with a once-occurring letter, and entries no longer live are
    skipped when popped.  Elimination stops when no relator has such a letter,
    or when a running count of the relators' letters exceeds its initial
    value by ``TIETZE_LETTER_CAP``.  Each step records ``(g, solution)``, and
    the substitution is expanded once at the end, in reverse elimination
    order: a solution's letters are survivors or generators eliminated later,
    whose words are known by then.
    """
    subst = {g: (g,) for g in range(1, len(pres.generators) + 1)}
    rels_with = {g: set() for g in subst}
    live = set()
    heap = []
    steps = []
    total = 0

    def add(rel):
        nonlocal total
        if not rel or rel in live:
            return
        live.add(rel)
        total += len(rel)
        letters = set(map(abs, rel))
        for h in letters:
            rels_with[h].add(rel)
        # a relator whose generators are all distinct, the usual case, has a
        # once-occurring letter without counting
        if len(letters) == len(rel) or 1 in Counter(map(abs, rel)).values():
            heapq.heappush(heap, (len(rel), rel))

    for rel in pres.relators:
        add(_cyclic_reduce(rel))

    limit = total + TIETZE_LETTER_CAP
    while total < limit:
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        if not heap:
            break
        _, rel = heapq.heappop(heap)
        if len(set(map(abs, rel))) == len(rel):
            pos = 0
        else:
            counts = Counter(map(abs, rel))
            pos = next(i for i, x in enumerate(rel) if counts[abs(x)] == 1)
        rotated = rel[pos:] + rel[:pos]
        letter, rest = rotated[0], rotated[1:]
        g = abs(letter)
        replacement = invert_word(rest) if letter > 0 else rest
        inverse = invert_word(replacement)
        steps.append((g, replacement))

        def substitute(word):
            out = []
            for lt in word:
                if lt == g:
                    out.extend(replacement)
                elif lt == -g:
                    out.extend(inverse)
                else:
                    out.append(lt)
            return out

        stale = rels_with.pop(g)
        for r in stale:
            live.remove(r)
            total -= len(r)
            for h in set(map(abs, r)) - {g}:
                rels_with[h].discard(r)
        for r in stale:
            add(_cyclic_reduce(substitute(r)))
    for g, replacement in reversed(steps):
        word = []
        for lt in replacement:
            word.extend(subst[lt] if lt > 0 else invert_word(subst[-lt]))
        subst[g] = free_reduce(word)
    return subst, tuple(sorted(live, key=lambda r: (len(r), r)))


def _expand(pres, word) -> tuple:
    """The word over the surviving generators, through the substitution."""
    subst = _simplified(pres)[0]
    out = []
    for letter in word:
        out.extend(subst[letter] if letter > 0 else invert_word(subst[-letter]))
    return free_reduce(out)


def _join(word, tail) -> tuple:
    """The reduced product of two reduced words: cancellation happens only
    where they meet."""
    n = 0
    while n < len(word) and n < len(tail) and word[-1 - n] == -tail[n]:
        n += 1
    return word[:len(word) - n] + tail[n:]


def _commute_pairwise(survivors, relators) -> bool:
    """Whether every two survivors have a relator among the given ones that
    is a cyclically reduced word of length 4 holding a, a^-1, b and b^-1 once
    each: a commutator up to rotation and inversion, so a and b commute."""
    pairs = set()
    for rel in relators:
        if (len(rel) == 4 and len(set(rel)) == 4 and len(set(map(abs, rel))) == 2
                and all(rel[i] != -rel[i - 1] for i in range(4))):
            pairs.add(frozenset(map(abs, rel)))
    n = len(survivors)
    return len(pairs) == n * (n - 1) // 2


@dataclass(frozen=True)
class _Residual:
    """The group G that word Tietze leaves, as covers and the word problem
    read it.

    ``relator_gens`` are the survivors that some residual relator holds;
    when there are none, G is free on the survivors and a reduced word over
    them is its own normal form.  ``abelian`` certifies that G is abelian: it has at most one survivor,
    or every two survivors commute by a residual relator (see
    ``_commute_pairwise``).  Then G is its own H1, so two words with equal
    H1 coordinates are equal in G.  ``words`` maps each signed letter of the
    presentation to its substitution, and ``coords`` to the H1 coordinates
    of that substitution in G as sparse (position, value) pairs, read off
    ``_abelianize`` of the residual relators over the survivors;
    ``moduli`` reduce each coordinate as in ``_h1_basis``.  Tietze moves
    keep the group (Lyndon and Schupp, ch. II.2), so these coordinates
    separate exactly the words the whole presentation's ``_h1_coords``
    separate.
    """

    relator_gens: frozenset
    abelian: bool
    words: dict
    coords: dict
    moduli: tuple


@_owned
def _residual(pres: GroupPresentation) -> _Residual:
    subst, relators = _simplified(pres)
    survivors = tuple(g for g, w in subst.items() if w == (g,))
    basis, moduli = _coordinates(_abelianize(survivors, relators))
    words, coords = {}, {}
    for g, w in subst.items():
        words[g], words[-g] = w, invert_word(w)
        # summed sparsely: the survivors may be many, and each letter's
        # substitution reaches few of them
        total = {}
        for letter in w:
            sign = 1 if letter > 0 else -1
            for p, v in basis[abs(letter)].items():
                total[p] = total.get(p, 0) + sign * v
        coords[g] = tuple((p, r) for p, v in sorted(total.items())
                          if (r := _reduce(v, moduli[p])))
        coords[-g] = tuple((p, _reduce(-v, moduli[p])) for p, v in coords[g])
    return _Residual(frozenset(abs(l) for r in relators for l in r),
                     len(survivors) <= 1 or _commute_pairwise(survivors, relators),
                     words, coords, moduli)


@_owned
def _rewriting_rules(pres: GroupPresentation) -> tuple:
    """Length-decreasing replacements harvested from the residual relators
    of at most ``_RULE_RELATOR_LETTERS`` letters.

    Every rule replaces a word by one equal to it in G, so rewriting with any
    subset of the rules keeps its Yes answers sound.
    """
    rules = {}
    for rel in _simplified(pres)[1]:
        if len(rel) > _RULE_RELATOR_LETTERS:
            continue
        for base in (rel, invert_word(rel)):
            for rot in _rotations(base):
                half = len(rot) // 2 + 1
                for cut in range(half, len(rot) + 1):
                    head, tail = rot[:cut], rot[cut:]
                    if len(head) <= len(tail):
                        continue
                    rep = invert_word(tail)
                    old = rules.get(head)
                    if old is None or (len(rep), rep) < (len(old), old):
                        rules[head] = rep
    return tuple(sorted(rules.items(), key=lambda kv: (-len(kv[0]), kv[0])))


def _rewrite(word, rules):
    word = free_reduce(word)
    steps = 0
    changed = True
    while changed and steps < _REWRITE_STEPS:
        changed = False
        for head, rep in rules:
            n = len(head)
            if n > len(word):
                continue
            for i in range(len(word) - n + 1):
                if word[i : i + n] == head:
                    word = free_reduce(word[:i] + rep + word[i + n :])
                    changed = True
                    steps += 1
                    break
            if changed:
                break
    return word


@_owned
def _coset_table(pres: GroupPresentation, budget: int):
    """(renumber, table) for G, the group of the residual relators: its
    generators, their letters, numbered from 1, and its coset table, or None
    when the enumeration runs out of the budget."""
    _, rels = _simplified(pres)
    live = sorted(_residual(pres).relator_gens)
    renumber = {g: i + 1 for i, g in enumerate(live)}
    packed = tuple(
        tuple((renumber[abs(l)]) * (1 if l > 0 else -1) for l in r) for r in rels
    )
    table = coset_enumeration(len(live), packed, budget)
    return (renumber, table) if table is not None else None


@dataclass(frozen=True)
class HomotopyDecision:
    verdict: str  # "yes" | "no" | "unknown"
    method: str
    witness: dict | None = None

    @property
    def is_yes(self):
        return self.verdict == "yes"

    @property
    def is_unknown(self):
        return self.verdict == "unknown"


def _word_trivial(pres, word, ident_budget) -> HomotopyDecision:
    word = free_reduce(word)
    if not word:
        return HomotopyDecision("yes", "free_reduction")
    if not pres.relators:
        return HomotopyDecision(
            "no", "free_group", {"reduced_word": list(word)}
        )
    coords = _h1_coords(pres, word)
    if any(coords):
        return HomotopyDecision(
            "no", "h1_separation", {"h1_class_difference": list(coords)}
        )
    return _residual_trivial(pres, _expand(pres, word), ident_budget)


def _residual_trivial(pres, word, ident_budget) -> HomotopyDecision:
    """``_word_trivial`` past H1 separation, for a reduced word over the
    survivors of ``_simplified`` (an ``_expand``-ed word)."""
    rewritten = _rewrite(word, _rewriting_rules(pres))
    if not rewritten:
        return HomotopyDecision("yes", "relator_rewriting")
    relator_gens = _residual(pres).relator_gens
    free_part = free_reduce([l for l in rewritten if abs(l) not in relator_gens])
    if free_part:
        # the projection onto the free factor, which kills the relator letters
        return HomotopyDecision(
            "no", "free_factor", {"reduced_word": list(free_part)}
        )
    packed = _coset_table(pres, ident_budget)
    if packed is None:
        return HomotopyDecision(
            "unknown", "budget", {"exhausted": "ident_budget", "budget": ident_budget}
        )
    # the normal form in F * G: free letters, and G elements as cosets of the
    # trivial subgroup (one-tuples), multiplied by the table's columns
    renumber, table = packed
    stack = []
    for letter in rewritten:
        g = renumber.get(abs(letter))
        if g is None:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
            continue
        c = stack.pop()[0] if stack and type(stack[-1]) is tuple else 0
        c = table.table[c][2 * (g - 1) + (letter < 0)]
        if c:
            stack.append((c,))
    if not stack:
        return HomotopyDecision("yes", "coset_enumeration")
    return HomotopyDecision("no", "coset_enumeration", {
        "normal_form": [s if type(s) is int else {"coset": s[0]} for s in stack],
        "group_order": table.order})


def decide_e_homotopic(space: FilteredSpace, k: int, c, d,
                       ident_budget: int = DEFAULT_COSET_ROWS) -> HomotopyDecision:
    """Certified three-valued test for scale-k homotopy relative endpoints.

    The chains must share both endpoints.  Yes and No answers are exact; an
    Unknown names the exhausted budget.
    """
    c, d = chain(space, k, c), chain(space, k, d)
    if c.start != d.start or c.end != d.end:
        raise EndpointMismatch(f"chains run {c.start!r}->{c.end!r} and {d.start!r}->{d.end!r}")
    # both chains start at the basepoint, so both lie in its component
    pres = presentation_at_scale(space, k, c.start)
    word = free_reduce(_chain_letters(pres, c.seq) + invert_word(_chain_letters(pres, d.seq)))
    return _word_trivial(pres, word, ident_budget)
