"""Integer-lattice normal forms: Hermite (row-style) and Smith.

The HNF convention is: basis rows sorted by pivot column, positive pivots,
entries above each pivot reduced into [0, pivot).  This makes the basis a
canonical form, so lattice equality is basis equality.

A full-rank basis with pivot product d spans a lattice of index d, which
holds d * Z^n, so its off-pivot entries are kept modulo d (Domich, Kannan
and Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138, Alg. 2.4.8).
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


def _index(basis: list[list[int]], ncols: int) -> int:
    """Pivot product of a full-rank basis (row i has pivot i), else 0."""
    if len(basis) < ncols:
        return 0
    return math.prod(row[i] for i, row in enumerate(basis))


def _mod_from(row: list[int], j: int, d: int) -> list[int]:
    """row with its entries from column j on reduced into [0, d)."""
    return row[:j] + [v % d for v in row[j:]]


def _insert(basis: list[list[int]], vec: list[int]):
    ncols = len(vec)
    d = _index(basis, ncols)
    for j in range(ncols):
        if d:
            vec = _mod_from(vec, j, d)
        if not vec[j]:
            continue
        row = basis[j] if d else next((r for r in basis if _pivot(r) == j), None)
        if row is None:
            if vec[j] < 0:
                vec = [-v for v in vec]
            basis.append(vec)
            basis.sort(key=_pivot)
            return
        a, b = row[j], vec[j]
        if b % a == 0:
            q = b // a
            vec = [v - q * r for v, r in zip(vec, row)]
        else:
            x, y, g = _xgcd(a, b)
            new_row = [x * r + y * v for r, v in zip(row, vec)]
            vec = [(a // g) * v - (b // g) * r for v, r in zip(vec, row)]
            if d:
                d = d // a * g
                new_row = _mod_from(new_row, j + 1, d)
            row[:] = new_row


def _reduce_above(basis: list[list[int]], ncols: int):
    # Left-to-right: reducing with row i only touches columns >= pivot(i),
    # so earlier pivot columns stay reduced.
    basis.sort(key=_pivot)
    d = _index(basis, ncols)
    for i in range(len(basis)):
        j = _pivot(basis[i])
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
                if d:
                    basis[k] = _mod_from(basis[k], k + 1, d)


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


def hnf(generators, ambient_rank: int | None = None) -> IntLattice:
    """Hermite normal form lattice of the integer span of the generators,
    whose entries must be ints or integral Fractions."""
    gens = [[v if type(v) is int else _as_int(v) for v in g] for g in generators]
    if ambient_rank is None:
        ambient_rank = len(gens[0]) if gens else 0
    basis: list[list[int]] = []
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("generators must share one ambient rank")
        if any(g):
            _insert(basis, list(g))
    _reduce_above(basis, ambient_rank)
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
