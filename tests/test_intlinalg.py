import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from scalecover.intlinalg import (
    eye,
    invariant_factors,
    matmul,
    matvec,
    smith_normal_form,
    solve_integer,
    unimodular_inverse,
    with_relation_columns,
)


def random_matrix(rng, m, n, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_transform_identity():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        u, s, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == s
        assert abs(sympy.Matrix(u).det()) == 1
        assert abs(sympy.Matrix(v).det()) == 1
        diag = [s[i][i] for i in range(min(m, n))]
        for d, e in zip(diag, diag[1:]):
            if e:
                assert d != 0 and e % d == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0


def test_snf_matches_sympy():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        ours = invariant_factors(a)
        ref = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
        ref_diag = [abs(ref[i, i]) for i in range(min(m, n)) if ref[i, i] != 0]
        assert ours == ref_diag


def test_solve_integer_against_bruteforce():
    rng = random.Random(13)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = random_matrix(rng, m, n, bound=3)
        b = [rng.randint(-4, 4) for _ in range(m)]
        x = solve_integer(a, b)
        if x is not None:
            assert matvec(a, x) == b
        else:
            # brute force a small box; no solution should exist inside it
            found = False
            rng2 = random.Random(0)
            for _ in range(2000):
                cand = [rng2.randint(-6, 6) for _ in range(n)]
                if matvec(a, cand) == b:
                    found = True
                    break
            assert not found


def test_unimodular_inverse():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        u, _, _ = smith_normal_form(a)
        inv = unimodular_inverse(u)
        assert matmul(u, inv) == eye(n)
    for a in ([[2]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):
            unimodular_inverse(a)


def test_relation_columns_span_image_plus_relations():
    rng = random.Random(41)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(0, 3)
        a = random_matrix(rng, m, n)
        relations = [rng.choice([0, 0, 2, 3, 6]) for _ in range(m)]
        before = [list(row) for row in a]
        out = with_relation_columns(a, relations)
        assert a == before
        assert [row[:n] for row in out] == a
        assert all(len(row) == n + sum(1 for d in relations if d) for row in out)
        # the same lattice as appending the whole diagonal, zero columns included
        full = [row + [relations[j] if i == j else 0 for j in range(m)]
                for i, row in enumerate(a)]
        assert sympy_hnf(sympy.Matrix(out)) == sympy_hnf(sympy.Matrix(full))
