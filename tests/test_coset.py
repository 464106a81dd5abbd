from sympy.combinatorics.fp_groups import FpGroup
from sympy.combinatorics.free_groups import free_group

from scalecover.coset import coset_enumeration


def trace(table, word) -> int:
    """The coset that word reaches from coset 0 through the table's columns."""
    c = 0
    for letter in word:
        c = table.table[c][2 * (abs(letter) - 1) + (letter < 0)]
    return c


def test_trivial_group():
    table = coset_enumeration(1, [(1,)])
    assert table.order == 1
    assert trace(table, (1, 1, -1)) == 0


def test_cyclic_groups():
    for n in (2, 3, 5, 12):
        table = coset_enumeration(1, [(1,) * n])
        assert table.order == n
        assert trace(table, (1,) * n) == 0
        assert trace(table, (1,)) != 0


def test_symmetric_group_s3():
    # <a, b | a^2, b^2, (ab)^3>
    table = coset_enumeration(2, [(1, 1), (2, 2), (1, 2) * 3])
    assert table.order == 6
    assert trace(table, (1, 2, 1, 2, 1, 2)) == 0
    assert trace(table, (1, 2)) != 0


def test_quaternion_group():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>
    rels = [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)]
    table = coset_enumeration(2, rels)
    assert table.order == 8


def test_budget_exhaustion_on_infinite_group():
    # free group on one generator never closes
    assert coset_enumeration(1, [], max_rows=50) is None


def test_orders_match_sympy():
    cases = [
        (2, [(1, 1), (2, 2, 2), (1, 2) * 4]),  # order 24
        (2, [(1, 1, 1), (2, 2), (1, 2) * 3]),  # order 12
    ]
    for ngens, rels in cases:
        table = coset_enumeration(ngens, rels)
        f, *gens = free_group(" ".join(f"x{i}" for i in range(ngens)))
        sym_rels = []
        for rel in rels:
            w = f.identity
            for letter in rel:
                g = gens[abs(letter) - 1]
                w = w * (g if letter > 0 else g**-1)
            sym_rels.append(w)
        assert table.order == FpGroup(f, sym_rels).order()
