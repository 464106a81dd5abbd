"""Todd-Coxeter coset enumeration over the trivial subgroup.

Words are tuples of nonzero ints: letter g > 0 is generator g, letter -g its
inverse.  Enumeration follows the HLT strategy with immediate coincidence
processing; the budget bounds the number of rows ever defined, dead rows
included, so an exhausted budget is reported rather than guessed around.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

DEFAULT_COSET_ROWS = 100_000


class CosetBudgetExceeded(Exception):
    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"coset row budget {budget} exhausted")


@dataclass(frozen=True)
class CosetTable:
    """Completed multiplication table on cosets of the trivial subgroup.

    Coset 0 is the subgroup, and ``table[c][2 * (g - 1)]`` and
    ``table[c][2 * (g - 1) + 1]`` are c times generator g and its inverse.
    """

    table: tuple
    rows_defined: int

    @property
    def order(self) -> int:
        return len(self.table)


def _col(letter: int) -> int:
    g = abs(letter) - 1
    return 2 * g if letter > 0 else 2 * g + 1


def _inv_col(col: int) -> int:
    return col ^ 1


def coset_enumeration(num_gens: int, relators, max_rows: int = DEFAULT_COSET_ROWS):
    """Enumerate cosets of the trivial subgroup of <g1..gn | relators>.

    Returns a CosetTable when the enumeration closes (the group is then
    finite of that order) or None when the row budget runs out first.
    """
    width = 2 * num_gens
    table = [[None] * width]
    parent = [0]

    def rep(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha, col):
        if len(table) >= max_rows:
            raise CosetBudgetExceeded(max_rows)
        new = len(table)
        table.append([None] * width)
        parent.append(new)
        table[alpha][col] = new
        table[new][_inv_col(col)] = alpha
        return new

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        queue.append(b)

    def coincidence(a, b):
        queue = deque()
        merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            row = table[gamma]
            for col in range(width):
                delta = row[col]
                if delta is None:
                    continue
                table[delta][_inv_col(col)] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][col] is not None:
                    merge(nu, table[mu][col], queue)
                elif table[nu][_inv_col(col)] is not None:
                    merge(mu, table[nu][_inv_col(col)], queue)
                else:
                    table[mu][col] = nu
                    table[nu][_inv_col(col)] = mu

    def scan_and_fill(alpha, word):
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j and table[f][_col(word[i])] is not None:
                f = rep(table[f][_col(word[i])])
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][_inv_col(_col(word[j]))] is not None:
                b = rep(table[b][_inv_col(_col(word[j]))])
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][_col(word[i])] = b
                table[b][_inv_col(_col(word[i]))] = f
                return
            f = rep(define(f, _col(word[i])))
            i += 1

    try:
        alpha = 0
        while alpha < len(table):
            if rep(alpha) != alpha:
                alpha += 1
                continue
            for rel in relators:
                if rep(alpha) != alpha:
                    break
                if rel:
                    scan_and_fill(alpha, rel)
            if rep(alpha) == alpha:
                for col in range(width):
                    if table[alpha][col] is None:
                        define(alpha, col)
            alpha += 1
    except CosetBudgetExceeded:
        return None

    live = [c for c in range(len(table)) if rep(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    compact = tuple(
        tuple(renumber[rep(table[c][col])] for col in range(width)) for c in live
    )
    return CosetTable(compact, len(table))
