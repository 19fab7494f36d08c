"""Integer-lattice normal forms: Hermite (row-style) and Smith.

The HNF convention is: basis rows sorted by pivot column, positive pivots,
entries above each pivot reduced into [0, pivot).  This makes the basis a
canonical form, so lattice equality is basis equality.

One kernel, _hermite, computes it.  It holds its rows by pivot column and
inserts the generators one at a time, each down its nonzero columns: a
column without a row takes the vector as a new row, and otherwise one row
operation (a multiple of the row, or an extended-gcd combination that
replaces the row) clears the column; the vector is done when it is zero.

The modulus rule (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987;
Cohen, GTM 138, Alg. 2.4.8): once the span is known to hold d Z^n, every
entry right of a pivot may be taken modulo d.  That holds from the start
with a known index d, and otherwise from the moment the rows reach full
rank, with d their pivot product, kept up to date as pivots shrink.  The
inserted vector is reduced when a row operation has changed it, and a
replaced row when it is rewritten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _xgcd(a: int, b: int):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _pivot(row) -> int:
    return next(j for j, v in enumerate(row) if v)


def _hermite(gens, ncols: int, d: int = 0) -> list[list[int]]:
    """The canonical HNF rows of the span of the integer vectors gens, or,
    with d > 0, of that span plus d Z^ncols.

    rows[j] is the row with pivot column j, or None.  Left of column j the
    inserted vector and rows[j] are zero, so each row operation runs on the
    columns from j on.  With a known d a missing row stands for d e_j;
    without one, d is 0 until the rows reach full rank and then their pivot
    product, which a combination that takes pivot a to g = gcd(a, b)
    divides by a / g.  The lists in gens are not modified."""
    rows: list[list[int] | None] = [None] * ncols
    track = not d
    free = ncols if track else 0  # pivot columns still without a row
    for vec in gens:
        vec = [v % d for v in vec] if d else list(vec)
        j = 0
        while True:
            while j < ncols and not vec[j]:
                j += 1
            if j == ncols:
                break
            b, row = vec[j], rows[j]
            if row is None:
                if not d:
                    if b < 0:
                        vec = [-v for v in vec]
                    rows[j] = vec
                    free -= 1
                    if not free:
                        d = math.prod(r[i] for i, r in enumerate(rows))
                    break
                # combine with the row d e_j: x d + y b = g
                _, y, g = _xgcd(d, b)
                rows[j] = [0] * j + [g] + [y * v % d for v in vec[j + 1:]]
                vec[j:] = [0] + [d // g * v % d for v in vec[j + 1:]]
            else:
                a = row[j]
                if b % a == 0:
                    q = b // a
                    if d:
                        vec[j:] = [(v - q * r) % d for v, r in zip(vec[j:], row[j:])]
                    else:
                        vec[j:] = [v - q * r for v, r in zip(vec[j:], row[j:])]
                else:
                    x, y, g = _xgcd(a, b)
                    s, t = a // g, b // g
                    if track:
                        d = d // a * g
                    pairs = list(zip(row[j + 1:], vec[j + 1:]))
                    if d:
                        rows[j] = row[:j] + [g] + [(x * r + y * v) % d for r, v in pairs]
                        vec[j:] = [0] + [(s * v - t * r) % d for r, v in pairs]
                    else:
                        rows[j] = row[:j] + [g] + [x * r + y * v for r, v in pairs]
                        vec[j:] = [0] + [s * v - t * r for r, v in pairs]
            j += 1
    if not track:
        rows = [[0] * j + [d] + [0] * (ncols - j - 1) if r is None else r
                for j, r in enumerate(rows)]
    basis = [(j, r) for j, r in enumerate(rows) if r is not None]
    # entries above each pivot into [0, pivot), left to right: reducing with
    # the row of pivot j only touches columns >= j, so earlier pivot columns
    # stay reduced
    for i, (j, ri) in enumerate(basis):
        p = ri[j]
        for _, rk in basis[:i]:
            q = rk[j] // p
            if q:
                tail = [u - q * v for u, v in zip(rk[j:], ri[j:])]
                rk[j:] = [v % d for v in tail] if d else tail
    return [r for _, r in basis]


@dataclass(frozen=True)
class IntLattice:
    """A sublattice of Z^ambient_rank with canonical HNF basis rows."""

    ambient_rank: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        """Membership by integer back-substitution down the triangular basis:
        a remainder left at a pivot column, or a non-integral entry, means no."""
        if len(vec) != self.ambient_rank:
            raise ValueError("ambient rank mismatch")
        ints = [int(v) for v in vec]
        if ints != list(vec):
            return False
        for row in self.basis:
            j = _pivot(row)
            q = ints[j] // row[j]
            if q:
                ints = [v - q * b for v, b in zip(ints, row)]
        return not any(ints)


def _as_int(v) -> int:
    if isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1):
        return int(v)
    raise ValueError(f"hnf needs integer generators, not {v!r}")


def hnf(generators, ambient_rank: int | None = None, *, _index: int = 0) -> IntLattice:
    """Hermite normal form lattice of the integer span of the generators,
    whose entries must be ints or integral Fractions.

    _index, when positive, is an index the span is known to have (it holds
    _index Z^n): the kernel then runs modulo it from the start, and returns
    the span plus _index Z^n, which is the span itself when it is right."""
    gens = [[v if type(v) is int else _as_int(v) for v in g] for g in generators]
    if ambient_rank is None:
        ambient_rank = len(gens[0]) if gens else 0
    if any(len(g) != ambient_rank for g in gens):
        raise ValueError("generators must share one ambient rank")
    basis = _hermite(gens, ambient_rank, _index)
    return IntLattice(ambient_rank, tuple(tuple(r) for r in basis))


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix.

    Returns (invariants, U, V) with U * M * V diagonal, U and V unimodular,
    and the invariants satisfying d1 | d2 | ... (zeros trailing for rank
    deficiency).  invariants has length min(rows, cols).
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def rows_combine(i1, i2, a, b, c, d):
        # (R_i1, R_i2) <- (a R_i1 + b R_i2, c R_i1 + d R_i2), ad - bc = +-1
        A[i1], A[i2] = ([a * x + b * y for x, y in zip(A[i1], A[i2])],
                        [c * x + d * y for x, y in zip(A[i1], A[i2])])
        U[i1], U[i2] = ([a * x + b * y for x, y in zip(U[i1], U[i2])],
                        [c * x + d * y for x, y in zip(U[i1], U[i2])])

    def cols_combine(j1, j2, a, b, c, d):
        for mat in (A, V):
            for r in mat:
                x, y = r[j1], r[j2]
                r[j1], r[j2] = a * x + b * y, c * x + d * y

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        pos = next(((i, j) for i in range(t, m) for j in range(t, n) if A[i][j]), None)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            rows_combine(t, i0, 0, 1, 1, 0)
        if j0 != t:
            cols_combine(t, j0, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    a, b = A[t][t], A[i][t]
                    if b % a == 0:
                        rows_combine(t, i, 1, 0, -(b // a), 1)
                    else:
                        x, y, g = _xgcd(a, b)
                        rows_combine(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                if A[t][j]:
                    a, b = A[t][t], A[t][j]
                    if b % a == 0:
                        cols_combine(t, j, 1, 0, -(b // a), 1)
                    else:
                        x, y, g = _xgcd(a, b)
                        cols_combine(t, j, x, y, -(b // g), a // g)
            if all(A[i][t] == 0 for i in range(t + 1, m)) and \
               all(A[t][j] == 0 for j in range(t + 1, n)):
                break
        t += 1

    # enforce the divisibility chain d1 | d2 | ...
    k = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b and (a == 0 or b % a):
                if a == 0:
                    rows_combine(i, i + 1, 0, 1, 1, 0)
                    cols_combine(i, i + 1, 0, 1, 1, 0)
                    changed = True
                    continue
                rows_combine(i, i + 1, 1, 1, 0, 1)  # row i += row i+1
                x, y, g = _xgcd(a, b)
                cols_combine(i, i + 1, x, y, -(b // g), a // g)
                # now A[i] = (g, 0) and A[i+1] = (y*b, a*b/g); g divides y*b
                if A[i + 1][i]:
                    rows_combine(i, i + 1, 1, 0, -(A[i + 1][i] // A[i][i]), 1)
                changed = True
    for i in range(k):
        if A[i][i] < 0:
            negate_row(i)
    invariants = tuple(A[i][i] for i in range(k))
    return invariants, U, V
