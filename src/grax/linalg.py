"""Exact dense linear algebra over fields, on one elimination kernel.

Matrices are lists of rows.  Every routine here reads the result of one
kernel: `_echelon` does forward elimination to row-echelon form, and
`rref` adds back-substitution for the reduced row-echelon form.  The kernel tests for
zero with `not x` (and skips the row operations on a zero entry) and
inverts with `1 / x`, so it runs unchanged on Fraction and CycloNum rows.
Arithmetic is exact, so pivoting only has to find a nonzero entry.

No library module imports this one: it is the field oracle the tests hold
the integer elimination of `grax.cyclotomic` and its callers to, and it
builds the per-character two-term construction; perfbench times
`mat_det`, `mat_rank` and `mat_inverse`.
"""

from __future__ import annotations

from grax.cyclotomic import CycloNum

ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)


def _echelon(m, ncols):
    """Forward elimination on the first ncols columns of a copy of m.

    Returns (rows, pivots, swaps, inverses): the rows in row-echelon form,
    the pivot column of each leading row, the number of row swaps made, and
    the inverse of each pivot.  A pivot is inverted only when a nonzero
    entry lies below it; its inverse is None otherwise.
    """
    a = [list(row) for row in m]
    pivots = []
    inverses = []
    swaps = 0
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            swaps += 1
        pr = a[r]
        below = [i for i in range(r + 1, len(a)) if a[i][c]]
        inv = 1 / pr[c] if below else None
        for i in below:
            f = a[i][c] * inv
            a[i] = a[i][:c] + [x - f * y if y else x for x, y in zip(a[i][c:], pr[c:])]
        pivots.append(c)
        inverses.append(inv)
    return a, pivots, swaps, inverses


def rref(m, ncols):
    """Reduced row-echelon form of a copy of m, eliminating on the first
    ncols columns (later columns are carried along, as in [A | B]).

    Returns (rows, pivots): each of the leading len(pivots) rows has a 1
    in its pivot column and zeros above and below it.
    """
    a, pivots, _, inverses = _echelon(m, ncols)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        # back-substitution leaves every pivot as elimination found it
        inv = inverses[r] or 1 / a[r][c]
        a[r] = pr = a[r][:c] + [x * inv if x else x for x in a[r][c:]]
        for i in range(r):
            f = a[i][c]
            if f:
                a[i] = a[i][:c] + [x - f * y if y else x for x, y in zip(a[i][c:], pr[c:])]
    return a, pivots


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ZERO
            for t in range(k):
                x = a[i][t]
                if not x.is_zero():
                    acc = acc + x * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_det(m):
    """Determinant of a square matrix: the swap sign times the product of
    the echelon pivots."""
    n = len(m)
    a, pivots, swaps, _ = _echelon(m, n)
    if len(pivots) < n:
        return ZERO
    det = -ONE if swaps % 2 else ONE
    for r in range(n):
        det = det * a[r][r]
    return det


def mat_rank(m):
    return len(_echelon(m, len(m[0]))[1]) if m else 0


def mat_inverse(m):
    """Inverse of a square matrix; returns None if singular."""
    n = len(m)
    a, pivots = rref([list(row) + e for row, e in zip(m, mat_identity(n))], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in a]


def left_kernel(m):
    """Basis rows of {x : x * m = 0} for an r-by-c matrix."""
    n = len(m)
    if n == 0:
        return []
    # x * m = 0  <=>  m^T x^T = 0; row-reduce m^T.
    a, pivots = rref([list(col) for col in zip(*m)], n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [ZERO] * n
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(vec)
    return basis


def row_basis(m):
    """A basis of the row space: the nonzero rows of the reduced echelon form."""
    if not m:
        return []
    a, pivots = rref(m, len(m[0]))
    return a[:len(pivots)]
