"""Exact integer matrix algebra: Smith forms and solves.

Matrices are lists of lists of Python ints, so every computation is exact at
arbitrary precision.  Pivots are chosen by minimal absolute value to limit
coefficient growth.  Solves and unimodular inverses are read off one Smith
form S = U a V: a x = b is S y = U b with x = V y, and a unimodular a has
S = I, so its inverse is V U.
"""

from __future__ import annotations


def shape(a):
    return len(a), len(a[0]) if a else 0


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [list(row) for row in a]


def matmul(a, b):
    m, n = shape(a)
    n2, p = shape(b)
    if n != n2:
        raise ValueError(f"shape mismatch {m}x{n} times {n2}x{p}")
    out = zeros(m, p)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(p):
                    oi[j] += v * bk[j]
    return out


def matvec(a, x):
    m, n = shape(a)
    if len(x) != n:
        raise ValueError("vector length mismatch")
    return [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]


def smith_normal_form(a):
    """Return (U, S, V) with S = U @ a @ V in Smith normal form.

    U and V are unimodular; the diagonal of S is nonnegative and each entry
    divides the next.
    """
    m, n = shape(a)
    s = copy_matrix(a)
    u = eye(m)
    v = eye(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        si, sj = s[i], s[j]
        for c in range(n):
            si[c] += q * sj[c]
        ui, uj = u[i], u[j]
        for c in range(m):
            ui[c] += q * uj[c]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in s:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        # minimal absolute nonzero pivot in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = s[i][j]
                if val and (best is None or abs(val) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                q = s[i][t] // s[t][t]
                if q:
                    add_row(i, t, -q)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                q = s[t][j] // s[t][t]
                if q:
                    add_col(j, t, -q)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        pivot = s[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % pivot:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        t += 1
    for i in range(limit):
        if s[i][i] < 0:
            for c in range(n):
                s[i][c] = -s[i][c]
            for c in range(m):
                u[i][c] = -u[i][c]
    return u, s, v


def diagonal_of(s):
    m, n = shape(s)
    return [s[i][i] for i in range(min(m, n))]


def invariant_factors(a):
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    _, s, _ = smith_normal_form(a)
    return [d for d in diagonal_of(s) if d]


def solve_integer(a, b):
    """One integer solution x of a @ x = b, or None when none exists.

    With S = U a V in Smith form, a x = b exactly when S y = U b for
    y = V^-1 x, and S y = U b is solved entry by entry.
    """
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("right-hand side length mismatch")
    u, s, v = smith_normal_form(a)
    y = [0] * n
    for i, c in enumerate(matvec(u, b)):
        d = s[i][i] if i < n else 0
        if d:
            if c % d:
                return None
            y[i] = c // d
        elif c:
            return None
    return matvec(v, y)


def unimodular_inverse(u):
    """Exact inverse of a unimodular integer matrix.

    The Smith form S = U u V of a unimodular u is the identity, so
    u^-1 = V U; any other diagonal raises ValueError.
    """
    m, n = shape(u)
    if m != n:
        raise ValueError("not square")
    left, s, right = smith_normal_form(u)
    if any(d != 1 for d in diagonal_of(s)):
        raise ValueError("matrix is not unimodular")
    return matmul(right, left)


def with_relation_columns(a, relations):
    """A copy of a with the column d*e_b appended for each nonzero relations[b] = d.

    ``relations`` lists one modulus per row of a; 0 means a free row and
    adds no column.  The columns of the result span the image of a plus the
    relation lattice.
    """
    extra = [(b, d) for b, d in enumerate(relations) if d]
    return [list(row) + [d if r == b else 0 for b, d in extra] for r, row in enumerate(a)]


def is_surjective_onto(a, relation_diag):
    """Whether the columns of a generate Z^m modulo diag relations.

    ``relation_diag`` lists one modulus per row; 0 means a free row.  The map
    is onto exactly when [a | diag] has full row rank with all invariant
    factors 1.
    """
    if len(relation_diag) != len(a):
        raise ValueError("relation length mismatch")
    facts = invariant_factors(with_relation_columns(a, relation_diag))
    return len(facts) == len(a) and all(d == 1 for d in facts)
