"""Rips 2-skeletons and the homotopy theory of chains at a fixed scale.

Only the 2-skeleton is ever built: homotopy of edge paths in a simplicial
complex is decided by its 2-skeleton.  Chains map to words over the non-tree
edges of a breadth-first spanning forest; two chains with common endpoints are
homotopic at the scale exactly when the combined word dies in the edge-path
group.  One Tietze reduction of the presentation serves both H1 and the word
problem: generators that occur once in a relator are eliminated, H1 is the
Smith form of the residual relators over the surviving generators, and a
word's H1 coordinates come from its exponents over the survivors.  Word
triviality is attacked in a fixed order (free reduction, integral
abelianization, bounded rewriting, coset enumeration) and the answer is a
certified Yes/No or an honest Unknown; nothing is ever guessed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import intlinalg as ila
from .coset import coset_enumeration
from .spaces import (
    Chain,
    EndpointMismatch,
    FilteredSpace,
    ScaleMismatch,
    SpaceError,
    is_chain,
)

DEFAULT_COSET_ROWS = 100_000
# _simplified stops eliminating once the relators hold this many letters
TIETZE_LETTER_CAP = 10_000


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
    """Edges are scale-k pairs, triangles the pairwise scale-k triples."""
    space.check_scale(k)
    edges = tuple(space.sorted_pairs(k))
    triangles = []
    for a, b in edges:
        ib = space.index(b)
        for c in space.points:
            if space.index(c) > ib and space.related(k, a, c) and space.related(k, b, c):
                triangles.append((a, b, c))
    triangles.sort(key=lambda t: tuple(space.index(p) for p in t))
    return Rips2Skeleton(k, space.points, edges, tuple(triangles))


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
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


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
    to its tree parent (None at a root).  Words are relative to this specific
    forest and are not canonical across different forests.
    """

    space: FilteredSpace
    scale: int
    basepoint: object
    component: tuple
    tree_edges: tuple
    generators: tuple
    relators: tuple
    parent: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_gen_index", {e: i + 1 for i, e in enumerate(self.generators)}
        )
        object.__setattr__(self, "_tree", frozenset(self.tree_edges))
        object.__setattr__(self, "_members", frozenset(self.component))

    def edge_letter(self, a, b):
        """Signed generator for traversing a -> b; None for tree or diagonal."""
        if a == b:
            return None
        pair = self.space.pair(a, b)
        if pair in self._tree:
            return None
        g = self._gen_index.get(pair)
        if g is None:
            raise SpaceError(f"{(a, b)!r} is not an edge at scale {self.scale}")
        return g if pair == (a, b) else -g

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
    with one breadth-first tree per component.
    """
    space.check_scale(k)
    if basepoint is None:
        roots = space.points
    else:
        space.index(basepoint)
        roots = (basepoint,)
    tree = set()
    parent = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        frontier = [root]
        while frontier:
            nxt = []
            for p in frontier:
                for q in space.neighbors(k, p):
                    if q not in parent:
                        parent[q] = p
                        tree.add(space.pair(p, q))
                        nxt.append(q)
            frontier = nxt
    generators = tuple(
        e for e in space.sorted_pairs(k) if e[0] in parent and e not in tree
    )
    pres = GroupPresentation(
        space, k, basepoint, space.sort_points(parent),
        tuple(sorted(tree, key=lambda e: (space.index(e[0]), space.index(e[1])))),
        generators, (), parent,
    )
    relators = []
    for a, b, c in rips_2_skeleton(space, k).triangles:
        if a not in parent:
            continue
        word = []
        for u, v in ((a, b), (b, c), (c, a)):
            letter = pres.edge_letter(u, v)
            if letter is not None:
                word.append(letter)
        relators.append(free_reduce(word))
    return replace(pres, relators=tuple(relators))


def chain_word(pres: GroupPresentation, chain) -> tuple:
    """Reduced word of signed generator letters of a chain, read against the
    presentation's spanning tree.

    For loops at the basepoint, equal words imply homotopic chains at the
    presentation's scale.
    """
    if isinstance(chain, Chain):
        if chain.scale != pres.scale:
            raise ScaleMismatch(f"chain at scale {chain.scale}, presentation at {pres.scale}")
        seq = chain.seq
    else:
        seq = tuple(chain)
    if not is_chain(pres.space, pres.scale, seq):
        raise SpaceError(f"not a chain at scale {pres.scale}: {seq!r}")
    for p in seq:
        if p not in pres._members:
            raise OutsideComponent(f"point {p!r} is outside the basepoint's component")
    word = []
    for a, b in zip(seq, seq[1:]):
        letter = pres.edge_letter(a, b)
        if letter is not None:
            word.append(letter)
    return free_reduce(word)


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

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


def h1_at_scale(space: FilteredSpace, k: int, basepoint=None) -> AbelianGroupInv:
    """H1 of the scale-k 2-skeleton; restricted to a component if given."""
    return presentation_h1(presentation_at_scale(space, k, basepoint))


def h1_class(space: FilteredSpace, k: int, seq) -> tuple:
    """Image of a loop in H1 coordinates; zero is necessary for nulhomotopy.

    Coordinates list torsion positions first (reduced into [0, d)), then
    free positions.
    """
    pres = presentation_at_scale(space, k, None)
    loop = seq if isinstance(seq, Chain) else Chain(k, seq)
    word = chain_word(pres, loop)
    if loop.start != loop.end:
        raise NotALoop(f"chain from {loop.start!r} to {loop.end!r} is not a loop")
    return _h1_coords(pres, _expand(pres, word))


def presentation_h1(pres: GroupPresentation) -> AbelianGroupInv:
    """Abelianization of the presented group: H1 of the presented components.

    Tietze moves keep the group, so this is the Smith form of the residual
    relators left by ``_simplified`` over its surviving generators.
    """
    _, _, _, moduli = _pres_abelian(pres)
    return AbelianGroupInv(moduli.count(0), tuple(d for d in moduli if d))


@lru_cache(maxsize=None)
def _pres_abelian(pres: GroupPresentation):
    """Smith form of the residual relators over the surviving generators.

    Returns (column, u, kept, moduli): each survivor's column, the row
    transform, the diagonal positions that are not 1 (torsion first, then
    free) and their diagonal entries, 0 when free.
    """
    subst, rels = _simplified(pres)
    column = {g: i for i, g in enumerate(g for g, w in subst.items() if w == (g,))}
    r = ila.zeros(len(column), len(rels))
    for j, rel in enumerate(rels):
        for letter in rel:
            r[column[abs(letter)]][j] += 1 if letter > 0 else -1
    u, s, _ = ila.smith_normal_form(r)
    diag = ila.diagonal_of(s)
    diag += [0] * (len(column) - len(diag))
    kept = tuple(i for i, d in enumerate(diag) if d != 1)
    return column, tuple(map(tuple, u)), kept, tuple(diag[i] for i in kept)


def _expand(pres, word) -> tuple:
    """The word over the surviving generators, through the substitution."""
    subst = _simplified(pres)[0]
    out = []
    for letter in word:
        out.extend(subst[letter] if letter > 0 else invert_word(subst[-letter]))
    return free_reduce(out)


def _h1_coords(pres, expanded) -> tuple:
    """H1 coordinates of a word over the surviving generators."""
    column, u, kept, moduli = _pres_abelian(pres)
    counts = Counter()
    for letter in expanded:
        counts[column[abs(letter)]] += 1 if letter > 0 else -1
    return tuple(_reduce(sum(u[i][c] * n for c, n in counts.items()), d)
                 for i, d in zip(kept, moduli))


def _reduce(value, modulus):
    return value % modulus if modulus else value


def h1_pushforward(source: GroupPresentation, target: GroupPresentation) -> tuple:
    """Matrix of H1(source) -> H1(target) for one space, target scale coarser.

    Source basis element i is column i of the inverse Smith transform, a sum
    of surviving generators' fundamental loops; each loop is read in the target.
    """
    column, u, kept, _ = _pres_abelian(source)
    uinv = ila.unimodular_inverse(u) if kept else []
    images = [_h1_coords(target, _expand(target, chain_word(
        target, source.fundamental_loop(g)))) for g in column]
    return tuple(
        tuple(_reduce(sum(uinv[c][i] * im[r] for c, im in enumerate(images)), d)
              for i in kept)
        for r, d in enumerate(_pres_abelian(target)[3]))


# ---------------------------------------------------------------------------
# chain reduction


def reduce_chain(space: FilteredSpace, k: int, chain) -> Chain:
    """Greedy homotopy reduction: drop interior points spanned at scale k.

    Each deletion is a homotopy across a triangle or a backtrack, so the
    result is homotopic to the input at scale k and never longer; on return
    no interior point is removable.
    """
    if isinstance(chain, Chain):
        if chain.scale != k:
            raise ScaleMismatch(f"chain at scale {chain.scale}, asked at {k}")
        seq = list(chain.seq)
    else:
        seq = list(chain)
    if not is_chain(space, k, seq):
        raise SpaceError(f"not a chain at scale {k}: {tuple(seq)!r}")
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
            if space.related(k, seq[i - 1], seq[i + 1]):
                del seq[i]
                changed = True
                break
    return Chain(k, tuple(seq))


# ---------------------------------------------------------------------------
# word triviality machinery


def _rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


@lru_cache(maxsize=None)
def _simplified(pres: GroupPresentation):
    """Tietze elimination: returns (substitution, residual relators).

    The substitution rewrites original letters into words over the surviving
    generators, those g with ``subst[g] == (g,)``; the residual relators are
    words over the survivors and present the same group.
    """
    subst = {g: (g,) for g in range(1, len(pres.generators) + 1)}
    rels = sorted(
        {r for r in (_cyclic_reduce(rel) for rel in pres.relators) if r},
        key=lambda r: (len(r), r),
    )

    def substitute(word, g, replacement):
        out = []
        for lt in word:
            if abs(lt) == g:
                out.extend(replacement if lt > 0 else invert_word(replacement))
            else:
                out.append(lt)
        return free_reduce(out)

    while sum(len(r) for r in rels) < TIETZE_LETTER_CAP:
        for rel in rels:
            counts = Counter(map(abs, rel))
            pos = next((i for i, x in enumerate(rel) if counts[abs(x)] == 1), None)
            if pos is not None:
                break
        else:
            break
        rotated = rel[pos:] + rel[:pos]
        letter, rest = rotated[0], rotated[1:]
        g = abs(letter)
        replacement = invert_word(rest) if letter > 0 else rest
        subst = {key: substitute(word, g, replacement) for key, word in subst.items()}
        new_rels = set()
        for r in rels:
            reduced = _cyclic_reduce(substitute(r, g, replacement))
            if reduced:
                new_rels.add(reduced)
        rels = sorted(new_rels, key=lambda r: (len(r), r))
    return subst, tuple(rels)


@lru_cache(maxsize=None)
def _rewriting_rules(pres: GroupPresentation) -> tuple:
    """Length-decreasing replacements harvested from the residual relators."""
    rules = {}
    for rel in _simplified(pres)[1]:
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


def _rewrite(word, rules, max_steps=10_000):
    word = free_reduce(word)
    steps = 0
    changed = True
    while changed and steps < max_steps:
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


@lru_cache(maxsize=None)
def _coset_table(pres: GroupPresentation, budget: int):
    _, rels = _simplified(pres)
    live = sorted({abs(l) for r in rels for l in r})
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
    def is_no(self):
        return self.verdict == "no"

    @property
    def is_unknown(self):
        return self.verdict == "unknown"


def _word_trivial(pres, word, coset_budget) -> HomotopyDecision:
    word = free_reduce(word)
    if not word:
        return HomotopyDecision("yes", "free_reduction")
    if not pres.relators:
        return HomotopyDecision(
            "no", "free_group", {"reduced_word": list(word)}
        )
    expanded = _expand(pres, word)
    coords = _h1_coords(pres, expanded)
    if any(coords):
        return HomotopyDecision(
            "no", "h1_separation", {"h1_class_difference": list(coords)}
        )
    rewritten = _rewrite(expanded, _rewriting_rules(pres))
    if not rewritten:
        return HomotopyDecision("yes", "relator_rewriting")
    _, rels = _simplified(pres)
    if not rels:
        return HomotopyDecision(
            "no", "free_group", {"reduced_word": list(rewritten)}
        )
    relator_gens = {abs(l) for r in rels for l in r}
    free_part = free_reduce([l for l in rewritten if abs(l) not in relator_gens])
    if free_part:
        # generators outside every relator split off as a free factor
        return HomotopyDecision(
            "no", "free_factor", {"reduced_word": list(free_part)}
        )
    bound_part = free_reduce([l for l in rewritten if abs(l) in relator_gens])
    packed = _coset_table(pres, coset_budget)
    if packed is not None:
        renumber, table = packed
        traced = tuple(renumber[abs(l)] * (1 if l > 0 else -1) for l in bound_part)
        target = table.trace(traced)
        if target != 0:
            return HomotopyDecision(
                "no",
                "coset_enumeration",
                {"coset": target, "group_order": table.order},
            )
        if bound_part == rewritten:
            return HomotopyDecision("yes", "coset_enumeration")
        return HomotopyDecision(
            "unknown",
            "mixed_free_product",
            {"reduced_word": list(rewritten)},
        )
    return HomotopyDecision(
        "unknown", "budget", {"exhausted": "coset_rows", "budget": coset_budget}
    )


def decide_e_homotopic(space: FilteredSpace, k: int, c, d,
                       coset_budget: int = DEFAULT_COSET_ROWS) -> HomotopyDecision:
    """Certified three-valued test for scale-k homotopy relative endpoints.

    The chains must share both endpoints.  Yes and No answers are exact; an
    Unknown names the exhausted budget.
    """
    cseq = tuple(c.seq) if isinstance(c, Chain) else tuple(c)
    dseq = tuple(d.seq) if isinstance(d, Chain) else tuple(d)
    for obj in (c, d):
        if isinstance(obj, Chain) and obj.scale != k:
            raise ScaleMismatch(f"chain at scale {obj.scale}, asked at {k}")
    for seq in (cseq, dseq):
        if not is_chain(space, k, seq):
            raise SpaceError(f"not a chain at scale {k}: {seq!r}")
    if cseq[0] != dseq[0] or cseq[-1] != dseq[-1]:
        raise EndpointMismatch(
            f"chains run {cseq[0]!r}->{cseq[-1]!r} and {dseq[0]!r}->{dseq[-1]!r}"
        )
    pres = presentation_at_scale(space, k, cseq[0])
    word = free_reduce(
        chain_word(pres, Chain(k, cseq)) + invert_word(chain_word(pres, Chain(k, dseq)))
    )
    return _word_trivial(pres, word, coset_budget)
