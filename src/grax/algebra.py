"""Group-algebra elements and matrices, the Wedderburn isomorphism, reduced
norms, generalized adjoints, and the # involution.

The splitting field is Q(zeta_e) with e the group exponent.  A central
element is stored as its tuple of values at the catalog irreducibles; the
Galois-consistency invariant (values at sigma-conjugate characters are
sigma-conjugate values) certifies that the tuple lies in the center of the
rational group algebra, and every constructor checks it exactly, on the
generators of (Z/e)^x (galois_defect).  Central
lattices live in class-sum coordinates.  One cached character table, its
entries as power-basis integer vectors at e (_class_table), links the two:
coords is an integer sum over it, and class sums become character values
by one other (_character_sums), which from_coords and char_value read.

A group-ring element lies in Q[G] by its type: integer numerators over
one denominator (GroupAlgebraElement), whose constructors are the one
place that refuses a coefficient outside Q (ValueError).  Every catalog
model is integral, so each IrreducibleRep holds rho(g) as power-basis
integer vectors at its conductor n (`images`).  A matrix's rows are
cleared of denominators once (cleared_rows reads the stored integers), and
its block at a character is one integer sum per entry (int_block);
wedderburn_block, its CycloNum view, is read only by wedderburn.  nrd
takes each block's determinant, and the wedges of grax.exterior each
maximal minor, by fraction-free Bareiss elimination over Z[zeta_n]
(block_det, cyclotomic.det_int), whose exact divisions multiply by the
other Galois conjugates of the previous pivot and divide by its integer
norm.

Generalized adjoints and inverses run on the same integers.  The
Gauss-Jordan form of that elimination (cyclotomic.det_adj_int) takes a
cleared block B with its row denominators D to det(B) and adj(B) without
fractions: M* is adj(B) D / det(D) at each character, zero where
det(B) = 0, and M^-1 is adj(B) D / det(B), a division by the norm of
det(B).  The library has one Fourier inversion, _fourier_int: coefficient
g is (1/|G|) sum_chi chi(1) tr(A_chi rho_chi(g^-1)) over the integer
images, each character's products lifted unreduced to the exponent e over
one common denominator and reduced once mod Phi_e.  Its one view in
Q[G], _fourier_rational, refuses an inversion outside Q[G] (ValueError);
adjoint_star, gam_inverse, matrix_from_blocks and wedderburn_inverse read
it, and delta_check reads M* as an integer grid over one denominator
(_adjoint_int).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from grax.cyclotomic import (CycloNum, _conjugates_and_norm, _galois_int, _lift_int, _mul_int,
                             _reduce_poly, _unit_generators, cyclo_from_int, det_adj_int,
                             det_int, euler_phi)
from grax.groups import FiniteGroup
from grax.reps import IrreducibleRep, irreps, contragredient_permutation, galois_permutation

ONE = CycloNum.from_rational(1)


def _rational(c):
    """c as an int or a Fraction: c may be either, or a rational CycloNum.
    Anything else is refused (ValueError)."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, CycloNum) and c.is_rational():
        return c.as_rational()
    raise ValueError("group-ring elements are taken here with rational coefficients")


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An element of Q[G]: the coefficient of group label g is num[g] / den.

    The pair is canonical (den > 0, gcd(den, *num) = 1, zero is 0/1), so
    equality is tuple equality.  The constructors from_coeffs and basis and
    the scalar product take an int, a Fraction or a rational CycloNum and
    refuse any other coefficient (ValueError): every element is in Q[G] by
    its type.  coeffs is a CycloNum view, built on each read.
    """

    group: FiniteGroup
    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def _reduced(G: FiniteGroup, num, den: int = 1) -> "GroupAlgebraElement":
        """The element num / den (den nonzero) with the common content and
        the sign of den divided out."""
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return GroupAlgebraElement(G, tuple(num), den)

    @staticmethod
    def zero(G: FiniteGroup) -> "GroupAlgebraElement":
        return GroupAlgebraElement(G, (0,) * G.order)

    @staticmethod
    def basis(G: FiniteGroup, g: int, scale=1) -> "GroupAlgebraElement":
        q = _rational(scale)
        num = [0] * G.order
        num[g] = q.numerator
        return GroupAlgebraElement(G, tuple(num), q.denominator)

    @staticmethod
    def one(G: FiniteGroup) -> "GroupAlgebraElement":
        return GroupAlgebraElement.basis(G, 0)

    @staticmethod
    def from_coeffs(G: FiniteGroup, coeffs) -> "GroupAlgebraElement":
        qs = [_rational(c) for c in coeffs]
        if len(qs) != G.order:
            raise ValueError("coefficient count must equal the group order")
        # each q is in lowest terms, so num and den have no common factor
        den = math.lcm(*(q.denominator for q in qs))
        return GroupAlgebraElement(G, tuple(q.numerator * (den // q.denominator) for q in qs), den)

    @property
    def coeffs(self) -> tuple[CycloNum, ...]:
        """The coefficients as rational CycloNums, built on each read;
        arithmetic reads num and den."""
        return tuple(cyclo_from_int(1, (c,), self.den) for c in self.num)

    def __add__(self, other):
        self._check(other)
        d = math.lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        return GroupAlgebraElement._reduced(
            self.group, [a * x + b * y for x, y in zip(self.num, other.num)], d)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return GroupAlgebraElement(self.group, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        G = self.group
        if isinstance(other, (int, Fraction, CycloNum)):
            q = _rational(other)
            return GroupAlgebraElement._reduced(G, [x * q.numerator for x in self.num],
                                                self.den * q.denominator)
        self._check(other)
        table = G.mul_table
        right = [(h, y) for h, y in enumerate(other.num) if y]
        out = [0] * G.order
        for g, x in enumerate(self.num):
            if x:
                row = table[g]
                for h, y in right:
                    out[row[h]] += x * y
        return GroupAlgebraElement._reduced(G, out, self.den * other.den)

    __rmul__ = __mul__  # reached only for scalars, which commute

    def involute(self) -> "GroupAlgebraElement":
        """The anti-involution sum c_g g  ->  sum c_g g^(-1)."""
        inverse = self.group.inverse
        return GroupAlgebraElement(self.group, tuple(self.num[inverse[g]]
                                                     for g in range(len(self.num))), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    def _check(self, other):
        if not isinstance(other, GroupAlgebraElement) or other.group is not self.group:
            raise ValueError("group mismatch in group-algebra arithmetic")

    def __repr__(self):
        terms = [f"{Fraction(c, self.den)}*[{g}]" for g, c in enumerate(self.num) if c]
        return f"GAE({self.group.name}: {' + '.join(terms) or '0'})"


@dataclass(frozen=True)
class GroupAlgebraMatrix:
    group: FiniteGroup
    rows: int
    cols: int
    entries: tuple[tuple[GroupAlgebraElement, ...], ...]

    @staticmethod
    def from_entries(G: FiniteGroup, grid) -> "GroupAlgebraMatrix":
        entries = tuple(tuple(e for e in row) for row in grid)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.group is not G:
                    raise ValueError("entry group mismatch")
        return GroupAlgebraMatrix(G, rows, cols, entries)

    @staticmethod
    def identity(G: FiniteGroup, n: int) -> "GroupAlgebraMatrix":
        one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
        return GroupAlgebraMatrix.from_entries(
            G, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def from_int_grid(G: FiniteGroup, grid) -> "GroupAlgebraMatrix":
        """Grid of rational scalars becomes a matrix of scalar algebra elements."""
        return GroupAlgebraMatrix.from_entries(
            G, [[GroupAlgebraElement.basis(G, 0, v) for v in row] for row in grid])

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraMatrix):
            if other.group is not self.group or self.cols != other.rows:
                raise ValueError("shape or group mismatch")
            G = self.group
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = GroupAlgebraElement.zero(G)
                    for t in range(self.cols):
                        if not self.entries[i][t].is_zero():
                            acc = acc + self.entries[i][t] * other.entries[t][j]
                    row.append(acc)
                out.append(row)
            return GroupAlgebraMatrix.from_entries(G, out)
        if isinstance(other, (int, Fraction, CycloNum, GroupAlgebraElement)):
            return GroupAlgebraMatrix.from_entries(
                self.group, [[e * other for e in row] for row in self.entries])
        return NotImplemented

    def __add__(self, other):
        return self._entrywise(other, GroupAlgebraElement.__add__)

    def __sub__(self, other):
        return self._entrywise(other, GroupAlgebraElement.__sub__)

    def _entrywise(self, other, op):
        if not isinstance(other, GroupAlgebraMatrix):
            return NotImplemented
        if other.group is not self.group or (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("shape or group mismatch")
        return GroupAlgebraMatrix.from_entries(
            self.group, [[op(a, b) for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)])

    def transpose(self) -> "GroupAlgebraMatrix":
        return GroupAlgebraMatrix.from_entries(
            self.group, [[self.entries[i][j] for i in range(self.rows)]
                         for j in range(self.cols)])

    def involute_entries(self) -> "GroupAlgebraMatrix":
        """Apply the group-inverting anti-involution to every entry."""
        return GroupAlgebraMatrix.from_entries(
            self.group, [[e.involute() for e in row] for row in self.entries])

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.entries for e in row)

    def row(self, i: int) -> tuple[GroupAlgebraElement, ...]:
        return self.entries[i]

    def __repr__(self):
        return f"GAM({self.group.name}, {self.rows}x{self.cols})"


# -- Wedderburn isomorphism -------------------------------------------------

def wedderburn(x: GroupAlgebraElement):
    """Per-character image of x under E[G] -> prod M_deg(E)."""
    M = GroupAlgebraMatrix.from_entries(x.group, [[x]])
    return tuple(wedderburn_block(M, chi) for chi in range(len(irreps(x.group))))


def cleared_rows(grid):
    """A grid of group-algebra elements with each row cleared of
    denominators once: (rows, dens), where rows[u][v] lists the nonzero
    (label, integer coefficient) pairs of dens[u] times entry (u, v) and
    dens[u] is the lcm of row u's element denominators."""
    rows, dens = [], []
    for row in grid:
        d = math.lcm(*(e.den for e in row))
        rows.append([[(g, c * (d // e.den)) for g, c in enumerate(e.num) if c] for e in row])
        dens.append(d)
    return rows, dens


def int_block(rows, rep: IrreducibleRep):
    """The block at rep of cleared rows, over Z[zeta_n] with n the
    conductor of rep: block row u*deg + i, column v*deg + j holds
    sum_g c_g rho(g)_ij as a power-basis integer vector, with c_g the
    coefficients of entry (u, v)."""
    c, images = rep.degree, rep.images
    d = len(images[0]) // (c * c)
    out = []
    for row in rows:
        sums = []
        for entry in row:
            acc = [0] * len(images[0])
            for g, x in entry:
                acc = [s + x * t for s, t in zip(acc, images[g])]
            sums.append(acc)
        for i in range(c):
            out.append([acc[k:k + d] for acc in sums
                        for k in range(i * c * d, (i + 1) * c * d, d)])
    return out


def block_det(rep: IrreducibleRep, blk, dens) -> CycloNum:
    """Determinant of the block of the rows cleared by dens: the integer
    determinant over the product of the row denominators, each to the
    degree."""
    return cyclo_from_int(rep.conductor, det_int(blk, rep.conductor),
                          math.prod(dens) ** rep.degree)


def wedderburn_block(M: GroupAlgebraMatrix, chi: int):
    """The (rows*deg) x (cols*deg) splitting-field matrix of M at one
    character: the integer block of the cleared rows over their
    denominators."""
    rep = irreps(M.group)[chi]
    rows, dens = cleared_rows(M.entries)
    return [[cyclo_from_int(rep.conductor, v, dens[U // rep.degree]) for v in brow]
            for U, brow in enumerate(int_block(rows, rep))]


def wedderburn_inverse(G: FiniteGroup, blocks) -> GroupAlgebraElement:
    """Two-sided inverse of wedderburn: Fourier inversion of a block tuple."""
    return matrix_from_blocks(G, 1, 1, blocks).entries[0][0]


def matrix_from_blocks(G: FiniteGroup, rows: int, cols: int, blocks) -> GroupAlgebraMatrix:
    """Reassemble a group-algebra matrix from its per-character block images:
    _fourier_rational of each block over one denominator at the conductor
    of its entries.  An entry whose conductor does not divide the exponent,
    or blocks whose inversion is not in Q[G], raise ValueError."""
    reps = irreps(G)
    if len(blocks) != len(reps):
        raise ValueError("block count must match the number of irreducibles")
    ints = []
    for rep, b in zip(reps, blocks):
        c = rep.degree
        if len(b) != rows * c or any(len(r) != cols * c for r in b):
            raise ValueError("block shape mismatch with irreducible degrees")
        k = math.lcm(1, *(x.n for r in b for x in r))
        if G.exponent % k:
            raise ValueError(f"a block entry at conductor {k} is outside Q(zeta_{G.exponent})")
        lifted = [[x.lift(k) for x in r] for r in b]
        den = math.lcm(1, *(x.den for r in lifted for x in r))
        ints.append(([[[v * (den // x.den) for v in x.num] for x in r] for r in lifted], den, k))
    return _rational_matrix(G, *_fourier_rational(G, rows, cols, ints))


@functools.lru_cache(maxsize=None)
def _inverse_columns(G: FiniteGroup):
    """Per character, the integer images of rho(g^-1) read across g: column
    k lists coordinate k of the flattened images[g^-1] for every label g."""
    return tuple(tuple(zip(*(rep.images[G.inv(g)] for g in range(G.order))))
                 for rep in irreps(G))


def _fourier_int(G: FiniteGroup, rows: int, cols: int, blocks, m: int):
    """Fourier inversion on integers.  blocks[chi] is None for a zero block
    or (grid, den, k): the block at chi is grid/den, a (rows*deg) x
    (cols*deg) grid of power-basis integer vectors at conductor k, with den
    a nonzero integer and k | m.  Coefficient g of entry (u, v) is
    (1/|G|) sum_chi chi(1) tr(A_chi rho_chi(g^-1)), with A_chi the
    sub-block of entry (u, v).

    Each character's products are summed unreduced, lifted to conductor m
    (zeta_k = zeta_m^(m/k), and likewise for the images at the
    representation's conductor) over one common denominator, and reduced
    once mod Phi_m.  Returns (entries, den): entries[u][v][g] is the
    coefficient times den as a power-basis integer vector at m, of length 1
    where it is rational before the reduction."""
    L = math.lcm(1, *(abs(b[1]) for b in blocks if b is not None))
    acc = [[{} for _ in range(cols)] for _ in range(rows)]  # exponent mod m -> list over g
    for rep, columns, blk in zip(irreps(G), _inverse_columns(G), blocks):
        if blk is None:
            continue
        grid, den, k = blk
        c, w = rep.degree, rep.degree * (L // den)
        d = len(columns) // (c * c)
        sa, sr = m // k, m // rep.conductor
        for U, brow in enumerate(grid):
            u, i = divmod(U, c)
            for V, a in enumerate(brow):
                v, j = divmod(V, c)
                slots, base = acc[u][v], (j * c + i) * d  # rho(g^-1)_ji
                for s, x in enumerate(a):
                    if not x:
                        continue
                    x *= w
                    for t in range(d):
                        key = (s * sa + t * sr) % m
                        cur = slots.get(key)
                        col = columns[base + t]
                        slots[key] = ([p + x * q for p, q in zip(cur, col)] if cur
                                      else [x * q for q in col])
    out = []
    for arow in acc:
        row = []
        for slots in arow:
            if not slots.keys() - {0}:
                row.append([[x] for x in slots.get(0, [0] * G.order)])
                continue
            coeffs = []
            for g in range(G.order):
                vec = [0] * m
                for key, vals in slots.items():
                    vec[key] = vals[g]
                coeffs.append(_reduce_poly(vec, m))
            row.append(coeffs)
        out.append(row)
    return out, L * G.order


def _fourier_rational(G: FiniteGroup, rows: int, cols: int, blocks):
    """_fourier_int at the exponent for blocks whose inversion lies in
    Q[G]: (grid, den) with grid[u][v] the integer coefficient list of
    den times entry (u, v).  An inversion outside Q[G] raises ValueError."""
    entries, den = _fourier_int(G, rows, cols, blocks, G.exponent)
    if any(any(v[1:]) for row in entries for e in row for v in e):
        raise ValueError("these blocks invert outside Q[G], whose elements take "
                         "rational coefficients")
    return [[[v[0] for v in e] for e in row] for row in entries], den


# -- central elements --------------------------------------------------------

@dataclass(frozen=True)
class CentralElement:
    """A Galois-consistent tuple in prod_chi Q(zeta_e), i.e. an element of zeta(Q[G])."""

    group: FiniteGroup
    values: tuple[CycloNum, ...]

    def __post_init__(self):
        if len(self.values) != len(irreps(self.group)):
            raise ValueError("one value per irreducible character required")
        if defect := galois_defect(self.group, self.values):
            raise AssertionError(defect)

    @staticmethod
    def one(G: FiniteGroup) -> "CentralElement":
        return CentralElement(G, (ONE,) * len(irreps(G)))

    @staticmethod
    def from_rational(G: FiniteGroup, q) -> "CentralElement":
        return CentralElement(G, (CycloNum.from_rational(q),) * len(irreps(G)))

    def __mul__(self, other):
        if isinstance(other, CentralElement):
            self._check(other)
            return CentralElement(self.group,
                                  tuple(a * b for a, b in zip(self.values, other.values)))
        if isinstance(other, (int, Fraction, CycloNum)):
            c = other if isinstance(other, CycloNum) else CycloNum.from_rational(other)
            return CentralElement(self.group, tuple(a * c for a in self.values))
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        self._check(other)
        return CentralElement(self.group,
                              tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return CentralElement(self.group,
                              tuple(a - b for a, b in zip(self.values, other.values)))

    def _check(self, other):
        if not isinstance(other, CentralElement) or other.group is not self.group:
            raise ValueError("group mismatch in central-element arithmetic")

    def __neg__(self):
        return CentralElement(self.group, tuple(-a for a in self.values))

    def hash_involution(self) -> "CentralElement":
        perm = contragredient_permutation(self.group)
        return CentralElement(self.group, tuple(self.values[p] for p in perm))

    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates in the conjugacy-class-sum basis of the rational center:
        at each class representative g, sum_chi v_chi chi(1) chi(g^-1) / |G|.
        The Fraction view of _coords_int."""
        ints, den = self._coords_int()
        return tuple(Fraction(v, den) for v in ints)

    def _coords_int(self) -> tuple[list[int], int]:
        """coords on integers: (ints, den) with coordinate k = ints[k] / den,
        den > 0 and not reduced.  Each value's integer vector is lifted to
        the exponent e, over the lcm of the value denominators, and at each
        class one integer sum over _class_table is reduced once mod Phi_e; a
        sum left with an irrational part is refused (AssertionError)."""
        G, e = self.group, self.group.exponent
        den = math.lcm(*(v.den for v in self.values))
        # columns[i][chi] is coordinate i, at e, of den chi(1) v_chi; a
        # rational value is its constant term alone, at any conductor
        columns = {}
        for chi, (rep, v) in enumerate(zip(irreps(G), self.values)):
            w = rep.degree * (den // v.den)
            if v.is_rational():
                num = v.num[:1]
            else:
                num = v.num if v.n == e else _lift_int(v.num, v.n, e)
            for i, c in enumerate(num):
                if c:
                    if i not in columns:
                        columns[i] = [0] * len(self.values)
                    columns[i][chi] = c * w
        table, out = _class_table(G), []
        width = max(columns, default=0) + 1
        for cls in G.conjugacy_classes:
            conj = table[G.class_of[G.inverse[cls[0]]]]  # chi(g^-1)
            acc = [0] * (width + len(conj) - 1)
            for i, col in columns.items():
                for j, t in enumerate(conj):
                    acc[i + j] += sum(map(operator.mul, col, t))
            if len(acc) > 1:  # one coordinate is rational as it stands
                acc = _reduce_poly(acc, e)
                if any(acc[1:]):
                    raise AssertionError("central element has non-rational class coordinates")
            out.append(acc[0])
        return out, den * G.order

    @staticmethod
    def from_coords(G: FiniteGroup, coords) -> "CentralElement":
        """The element with class-sum coordinates a: sum_k a_k |C_k| chi(g_k) / chi(1)."""
        coords = [Fraction(a) for a in coords]
        den = math.lcm(*(a.denominator for a in coords))
        sums = _character_sums(G, [a.numerator * (den // a.denominator) * len(cls)
                                   for cls, a in zip(G.conjugacy_classes, coords)])
        return CentralElement(G, tuple(cyclo_from_int(G.exponent, v, den * rep.degree)
                                       for rep, v in zip(irreps(G), sums)))

    def to_group_algebra(self) -> GroupAlgebraElement:
        ints, den = self._coords_int()
        return GroupAlgebraElement._reduced(self.group, [ints[k] for k in self.group.class_of],
                                            den)

    def is_integral(self) -> bool:
        """Componentwise integrality over Z (power-basis coordinates in Z)."""
        return all(v.is_integral() for v in self.values)

    def has_zero_component(self) -> bool:
        return any(v.is_zero() for v in self.values)

    def __eq__(self, other):
        return (isinstance(other, CentralElement) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __repr__(self):
        return f"CentralElement({self.group.name}, {list(self.values)!r})"


@functools.lru_cache(maxsize=None)
def _class_table(G: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The character table over Z[zeta_e], e the group exponent: row k holds
    chi(g_k) for every character chi, with g_k the representative of class
    k, as power-basis integer vectors stored by coordinate: row[j][chi] is
    the j-th coordinate of chi(g_k), and the trailing zero coordinates are
    left out, so a row of rational values has one.  Every catalog character
    is an algebraic integer; a value that is not is refused (AssertionError)."""
    table = []
    for cls in G.conjugacy_classes:
        values = [rep.character[cls[0]].lift(G.exponent) for rep in irreps(G)]
        if not all(v.is_integral() for v in values):
            raise AssertionError(f"{G.name}: a character value is not an algebraic integer")
        row = list(zip(*(v.num for v in values)))
        while not any(row[-1]):
            row.pop()
        table.append(tuple(row))
    return tuple(table)


def _character_sums(G: FiniteGroup, weights) -> list[list[int]]:
    """sum_k w_k chi(g_k) for every catalog character chi, with w_k the
    integer weight of class k: one integer sum over _class_table, each
    value a power-basis integer vector at the exponent."""
    acc = [[0] * len(irreps(G)) for _ in range(euler_phi(G.exponent))]
    for w, row in zip(weights, _class_table(G)):
        if w:
            for j, col in enumerate(row):
                acc[j] = [s + w * t for s, t in zip(acc[j], col)]
    return [list(v) for v in zip(*acc)]


def char_value(rep: IrreducibleRep, x: GroupAlgebraElement) -> CycloNum:
    """The character of the catalog irreducible rep at a rational
    group-algebra element: sum_k s_k chi(g_k) / den, with s_k the sum of the
    numerators over class k (_character_sums)."""
    G = x.group
    chi = next((i for i, r in enumerate(irreps(G)) if r is rep), None)
    if chi is None:
        raise ValueError(f"char_value takes a catalog irreducible of {G.name}")
    sums = [sum(x.num[g] for g in cls) for cls in G.conjugacy_classes]
    return cyclo_from_int(G.exponent, _character_sums(G, sums)[chi], x.den)


def class_product(G: FiniteGroup, u, v) -> list:
    """Product of two central elements given by class-sum coordinates.

    Coordinate k is the coefficient of the class representative g_k in
    (sum_x u[class(x)] x)(sum_y v[class(y)] y), that is
    sum_x u[class(x)] v[class(x^-1 g_k)]; integer input gives integer output.
    """
    table, inverse, class_of = G.mul_table, G.inverse, G.class_of
    out = []
    for cls in G.conjugacy_classes:
        g = cls[0]
        out.append(sum(u[class_of[x]] * v[class_of[table[inverse[x]][g]]]
                       for x in range(G.order) if u[class_of[x]]))
    return out


def _galois_trivial(G: FiniteGroup) -> bool:
    """Whether every sigma_a fixes every character: every value is rational."""
    return all(len(row) == 1 for row in _class_table(G))


def galois_defect(G: FiniteGroup, values):
    """Why a tuple of character values is not a central element of Q[G]: a
    conductor that does not divide the exponent, or a Galois automorphism
    that does not permute the values as it permutes the characters.  None
    when the tuple is consistent.

    sigma_a is tested only for the generators a of (Z/e)^x
    (cyclotomic._unit_generators): sigma_ab = sigma_a sigma_b and
    galois_permutation is an action, so consistency on them is consistency
    on the whole Galois group; and the least unit a that fails is one of
    them, so the message names the least failing a.

    Runs on integers: each value num/den at a conductor below the exponent
    e is lifted once to e (a reduced power-basis vector), and
    sigma_a(v_i) = v_perm(i) is tested
    as sigma_a(num_i) den_perm(i) = num_perm(i) den_i."""
    e = G.exponent
    if any(e % v.n for v in values):
        return "central value conductor does not divide the exponent"
    # where every sigma_a fixes every character, consistency is rationality
    if _galois_trivial(G) and all(v.is_rational() for v in values):
        return None
    lifted = [(list(v.num) if v.n == e else _lift_int(v.num, v.n, e), v.den) for v in values]
    for a in _unit_generators(e):
        perm = galois_permutation(G, a)
        for i, (num, den) in enumerate(lifted):
            other, other_den = lifted[perm[i]]
            if ([x * other_den for x in _galois_int(num, e, a)]
                    != [x * den for x in other]):
                return f"Galois consistency fails for sigma_{a} at character {i}"
    return None


# -- reduced norm, adjoint, involution, reduced rank -------------------------

def nrd(M: GroupAlgebraMatrix) -> CentralElement:
    """Reduced norm of a square matrix over Q[G], valued in the center.

    Computed per character as the fraction-free determinant of the integer
    block of the cleared rows (block_det).  Integral input yields
    componentwise integral values and the result always passes the
    Galois-consistency check.
    """
    if M.rows != M.cols:
        raise ValueError("reduced norm needs a square matrix")
    rows, dens = cleared_rows(M.entries)
    values = tuple(block_det(rep, int_block(rows, rep), dens) for rep in irreps(M.group))
    out = CentralElement(M.group, values)
    if all(d == 1 for d in dens) and not out.is_integral():
        raise AssertionError("reduced norm of an integral matrix must be integral")
    return out


def nrd_op(M: GroupAlgebraMatrix) -> CentralElement:
    """Reduced norm of M viewed over the opposite algebra (blockwise
    transpose): the block of M at chi with its sub-blocks transposed is the
    block of the entrywise involute at the contragredient of chi."""
    return nrd(M.involute_entries()).hash_involution()


def nrd_element(x: GroupAlgebraElement) -> CentralElement:
    return nrd(GroupAlgebraMatrix.from_entries(x.group, [[x]]))


def _block_adjugates(M: GroupAlgebraMatrix):
    """Per character, (det, adj): the determinant of the integer block B of
    the cleared rows, and adj(B) D, with D the diagonal of the row
    denominators (column V of adj(B) times the denominator of row V), or
    None where det = 0; and prod(dens), so that det(D) = prod(dens)^deg.
    The field block is A = D^-1 B, so det(A) A^-1 = adj(B) D / det(D) and
    A^-1 = adj(B) D / det(B)."""
    rows, dens = cleared_rows(M.entries)
    out = []
    for rep in irreps(M.group):
        c = rep.degree
        det, adj = det_adj_int(int_block(rows, rep), rep.conductor)
        if adj is not None and any(d != 1 for d in dens):
            adj = [[[x * dens[V // c] for x in v] for V, v in enumerate(row)] for row in adj]
        out.append((det, adj))
    return out, math.prod(dens)


def _adjoint_int(M: GroupAlgebraMatrix):
    """M* as (grid, den): grid[u][v] lists the integer coefficients of den
    times entry (u, v).  Its block at chi is adj(B) D / prod(dens)^deg, and
    zero where det B = 0."""
    if M.rows != M.cols:
        raise ValueError("generalized adjoint needs a square matrix")
    parts, p = _block_adjugates(M)
    return _fourier_rational(M.group, M.rows, M.cols,
                             [None if adj is None else (adj, p ** rep.degree, rep.conductor)
                              for rep, (_, adj) in zip(irreps(M.group), parts)])


def _rational_matrix(G: FiniteGroup, grid, den: int) -> GroupAlgebraMatrix:
    """The matrix over Q[G] with entry (u, v) = grid[u][v] / den."""
    return GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement._reduced(G, e, den) for e in row] for row in grid])


def adjoint_star(M: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """The generalized adjoint M*: M M* = M* M = nrd(M) I, with zero blocks
    exactly at the characters where the reduced norm vanishes."""
    return _rational_matrix(M.group, *_adjoint_int(M))


def hash_involution(x):
    """The # involution: contragredient permutation on central tuples,
    g -> g^(-1) on group-algebra elements."""
    if isinstance(x, CentralElement):
        return x.hash_involution()
    if isinstance(x, GroupAlgebraElement):
        return x.involute()
    raise TypeError("hash_involution expects a central or group-algebra element")


def reduced_rank(G: FiniteGroup, free_rank: int | None = None,
                 cut: int | None = None) -> tuple[int, ...]:
    """Per-character reduced rank of A^k (free_rank=k) or of e_chi A (cut=chi)."""
    reps = irreps(G)
    if (free_rank is None) == (cut is None):
        raise ValueError("specify exactly one of free_rank or cut")
    if free_rank is not None:
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        return tuple(r.degree * free_rank for r in reps)
    if not (0 <= cut < len(reps)):
        raise ValueError("cut index out of range")
    return tuple(r.degree ** 2 if i == cut else 0 for i, r in enumerate(reps))


def gam_inverse(M: GroupAlgebraMatrix) -> GroupAlgebraMatrix | None:
    """Inverse over Q[G]: at each character M*_chi / nrd_chi(M), that is
    adj(B) D conj / N with conj the product of the other Galois conjugates
    of det(B) and N its norm; None where a reduced norm vanishes."""
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    parts, _ = _block_adjugates(M)
    blocks = []
    for rep, (det, adj) in zip(irreps(M.group), parts):
        if adj is None:
            return None
        n = rep.conductor
        conj, norm = _conjugates_and_norm(det, n)
        blocks.append(([[_mul_int(v, conj, n) for v in row] for row in adj], norm, n))
    return _rational_matrix(M.group, *_fourier_rational(M.group, M.rows, M.cols, blocks))
