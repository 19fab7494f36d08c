"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as coordinate vectors in the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1) modulo the n-th cyclotomic polynomial:
one integer vector `num` over one positive denominator `den`, the
representation of FLINT's fmpq_poly and Antic's nf_elem.  The pair is kept
canonical (gcd(den, *num) == 1, and zero is (0, ..., 0)/1), so within one
conductor equality is tuple equality.  Equality across conductors goes
through the compatible system zeta_m = zeta_n^(n/m) for m | n, so
mixed-conductor arithmetic is well defined.  Arithmetic runs on ints and
normalises each result with one gcd; `coeffs` is a Fraction view for
serialisation.  Inversion divides the product of the Galois conjugates by
the (rational) norm; descent solves a linear system over Q on the
elimination kernel in `grax.linalg`.  `det_int` is the determinant over
Z[zeta_n] on bare integer vectors, by fraction-free elimination whose
exact divisions use the same conjugate product and norm; `det_adj_int`
runs the same elimination in Gauss-Jordan form for the adjugate.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the monic n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) divided by the product of Phi_d over proper divisors d of n.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num, den):
    """Exact division of integer polynomials (low-first coefficient lists)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[k - dd] = q
        for i, dc in enumerate(den):
            num[k - dd + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows r_k = coordinates of zeta_n^(phi(n)+k) in the power basis, for
    every exponent the package reduces: below max(n, 2*phi(n) - 1).  Phi_n
    is monic, so the rows are integral.

    Built whole on first use and never mutated, so concurrent readers
    share it safely.
    """
    d = euler_phi(n)
    # zeta^d = -(phi[0] + phi[1] z + ... + phi[d-1] z^(d-1))
    base = tuple(-c for c in cyclotomic_polynomial(n)[:d])
    rows = [base]
    for _ in range(max(n, 2 * d - 1) - d - 1):
        prev = rows[-1]
        top = prev[-1]
        shifted = (0,) + prev[:-1]
        if top:
            shifted = tuple(x + top * b for x, b in zip(shifted, base))
        rows.append(shifted)
    return tuple(rows)


def _reduce_poly(coeffs: list[int], n: int) -> list[int]:
    """Reduce a low-first integer coefficient list modulo Phi_n to length phi(n)."""
    rows = _reduction_rows(n)
    d = len(rows[0])
    if len(coeffs) <= d:
        return coeffs + [0] * (d - len(coeffs))
    out = coeffs[:d]
    for k in range(d, len(coeffs)):
        c = coeffs[k]
        if c:
            for i, r in enumerate(rows[k - d]):
                if r:
                    out[i] += c * r
    return out


def _canonical(n: int, num, den: int) -> "CycloNum":
    """The element num/den (den nonzero) with the common content and the sign
    of den divided out."""
    if den == 1:
        return CycloNum(n, num)
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return CycloNum(n, num, den)


def _poly_mul(x, y) -> list[int]:
    """Product of two low-first integer coefficient lists, unreduced."""
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    prod[i + j] += a * b
    return prod


def _mul_int(x, y, n: int) -> list[int]:
    """Product of two power-basis integer vectors modulo Phi_n."""
    return _reduce_poly(_poly_mul(x, y), n)


def _lift_int(x, n: int, m: int) -> list[int]:
    """A power-basis integer vector at conductor n re-expressed at m, a
    multiple of n, via zeta_n = zeta_m^(m/n): the coefficient of zeta_n^k
    moves to zeta_m^(k m/n), and the result is reduced mod Phi_m."""
    step = m // n
    out = [0] * ((len(x) - 1) * step + 1)
    out[::step] = x
    return _reduce_poly(out, m)


def _galois_int(x, n: int, a: int) -> list[int]:
    """The automorphism zeta_n -> zeta_n^a on a power-basis integer vector."""
    out = [0] * n
    for k, c in enumerate(x):
        out[(a * k) % n] = c
    return _reduce_poly(out, n)


def _conjugates_and_norm(x, n: int) -> tuple[list[int], int]:
    """For a nonzero integer vector x: the product conj of its conjugates
    sigma_a(x), 1 < a < n coprime to n, and the integer norm N = x * conj.
    Then 1/x = conj/N, and y/x = (y * conj)/N for every y."""
    conj = [1]
    for a in range(2, n):
        if math.gcd(a, n) == 1:
            conj = _mul_int(conj, _galois_int(x, n, a), n)
    norm = _mul_int(x, conj, n)
    if any(norm[1:]):
        raise ArithmeticError("the Galois norm of an element is not rational")
    return conj, norm[0]


def _from_fractions(n: int, coeffs, den: int = 1) -> "CycloNum":
    """The element sum(coeffs[i] * zeta_n^i) / den for Fraction coordinates."""
    common = math.lcm(*(c.denominator for c in coeffs))
    return _canonical(n, [c.numerator * (common // c.denominator) for c in coeffs],
                      common * den)


class CycloNum:
    """An element of Q(zeta_n): the power-basis coordinates num/den mod Phi_n.

    The constructor takes the pair as given; every operation hands it a
    canonical one.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        self.n = n
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions, built on each read;
        arithmetic reads `num` and `den`."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        if type(q) is int:
            return CycloNum(1, (q,))
        q = Fraction(q)
        return CycloNum(1, (q.numerator,), q.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycloNum":
        power %= n
        d = euler_phi(n)
        if power >= d:
            return CycloNum(n, _reduction_rows(n)[power - d])
        num = [0] * d
        num[power] = 1
        return CycloNum(n, num)

    # -- structure ----------------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        """Re-express in Q(zeta_m) for n | m, via zeta_n = zeta_m^(m/n)."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        return _canonical(m, _lift_int(self.num, self.n, m), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """Whether the element lies in Z[zeta_n] (an integral basis)."""
        return self.den == 1

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, CycloNum):
            if not isinstance(other, (int, Fraction)):
                return None, None
            other = CycloNum.from_rational(other)
        if self.n == other.n:
            return self, other
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    def _add(self, other, sign: int):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.den == b.den:
            return _canonical(a.n, [x + sign * y for x, y in zip(a.num, b.num)], a.den)
        return _canonical(a.n, [x * b.den + sign * y * a.den for x, y in zip(a.num, b.num)],
                          a.den * b.den)

    def __add__(self, other):
        if isinstance(other, CycloNum):
            if self.n == 1 and not self.num[0]:
                return other
            if other.n == 1 and not other.num[0]:
                return self
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.n, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, q: int) -> "CycloNum":
        """self * p / q for integers p and q != 0."""
        return _canonical(self.n, [c * p for c in self.num], self.den * q)

    def __mul__(self, other):
        if isinstance(other, CycloNum):
            if self.n == 1:
                return other._scale(self.num[0], self.den)
            if other.n == 1:
                return self._scale(other.num[0], other.den)
            a, b = self._pair(other)
            return _canonical(a.n, _reduce_poly(_poly_mul(a.num, b.num), a.n), a.den * b.den)
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse from the Galois norm: p, the product of the
        conjugates x.galois(a) for 1 < a < n coprime to n, makes N = self * p
        rational, and the inverse is p / N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return _canonical(self.n, [self.den] + [0] * (len(self.num) - 1), self.num[0])
        # with x = num/den: p = conj/den^(phi-1) and N = norm/den^phi
        conj, norm = _conjugates_and_norm(self.num, self.n)
        return _canonical(self.n, [c * self.den for c in conj], norm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic number by zero")
            q = Fraction(other)
            return self._scale(q.denominator, q.numerator)
        if isinstance(other, CycloNum):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois action and descent --------------------------------------

    def galois(self, a: int) -> "CycloNum":
        """Apply the automorphism zeta_n -> zeta_n^a; requires gcd(a, n) = 1."""
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"{a} is not coprime to the conductor {self.n}")
        return _canonical(self.n, _galois_int(self.num, self.n, a), self.den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.num == b.num

    # Equality is conductor-independent but the coefficient tuple is not,
    # so no hash is representation-safe without a normalization pass.
    __hash__ = None

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.as_rational()})"
        return f"CycloNum(n={self.n}, coeffs={[str(c) for c in self.coeffs]})"


# -- the operations exposed to the rest of the package ---------------------

def cyclo_make(n: int, coeffs) -> CycloNum:
    """Build sum(coeffs[i] * zeta_n^i) reduced modulo Phi_n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    coeffs = [Fraction(c) for c in coeffs]
    # phi(n) >= sqrt(n/2), so this n cannot match; refuse it before factoring it
    # (a conductor up to 20,000 is factored to name the expected count)
    if n > 2 * max(len(coeffs), 100) ** 2:
        raise ValueError(f"conductor {n} is too large for {len(coeffs)} coefficients")
    if len(coeffs) != euler_phi(n):
        raise ValueError(
            f"expected {euler_phi(n)} coefficients for conductor {n}, got {len(coeffs)}")
    return _from_fractions(n, coeffs)


def cyclo_from_int(n: int, num, den: int = 1) -> CycloNum:
    """The element num/den for a power-basis integer vector num at
    conductor n, canonical, and at conductor 1 when it is rational."""
    if any(num[1:]):
        return _canonical(n, num, den)
    return _canonical(1, num[:1], den)


def cyclo_inverse(x: CycloNum) -> CycloNum:
    return x.inverse()


def galois_apply(a: int, x: CycloNum) -> CycloNum:
    return x.galois(a)


def _bareiss(rows, n: int, width: int, jordan: bool):
    """Fraction-free elimination (E. H. Bareiss, Math. Comp. 22, 1968) of a
    size x width matrix over Z[zeta_n], width >= size, whose entries are
    power-basis integer vectors (plain ints where phi(n) = 1): step k
    replaces each entry a_ij right of the pivot column, in every row below
    the pivot b = a_kk (every row but the pivot's with jordan), by
    (b a_ij - a_ik a_kj) / b', with b' the previous pivot.  Each quotient is
    a minor, so it lies in Z[zeta_n], whose power basis is an integral
    basis; it is taken as the product with the conjugates of b' and one
    exact integer division by the norm of b', both set up once per step.
    A remainder means a wrong quotient and raises AssertionError.

    Returns (rows, sign), sign that of the row swaps, so the last pivot p
    is sign times the determinant of the leading size x size block B.  With
    jordan the steps take [B | C] to [p I | p B^-1 C]; the entries of the
    leading block left of each pivot are not written and not read.
    Returns (None, 0) when B is singular.
    """
    scalar = euler_phi(n) == 1
    a = [[v[0] for v in row] if scalar else [list(v) for v in row] for row in rows]
    size, sign, prev = len(a), 1, None
    for k in range(size):
        p = next((i for i in range(k, size) if (a[i][k] if scalar else any(a[i][k]))), None)
        if p is None:
            return None, 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        b = pivot_row[k]
        if prev is not None and not scalar:
            conj, norm = _conjugates_and_norm(prev, n)
        for row in (a[:k] if jordan else []) + a[k + 1:]:
            f = row[k]
            for j in range(k + 1, width):
                if scalar:
                    x = row[j] * b - f * pivot_row[j]
                    if prev is not None:
                        x, r = divmod(x, prev)
                        if r:
                            raise AssertionError("inexact Bareiss quotient")
                else:
                    x = _reduce_poly([s - t for s, t in zip(_poly_mul(row[j], b),
                                                             _poly_mul(f, pivot_row[j]))], n)
                    if prev is not None:
                        x = _mul_int(x, conj, n)
                        if any(c % norm for c in x):
                            raise AssertionError("inexact Bareiss quotient")
                        x = [c // norm for c in x]
                row[j] = x
        prev = b
    return a, sign


def det_int(rows, n: int) -> list[int]:
    """Determinant of a square matrix over Z[zeta_n] whose entries are
    power-basis integer vectors (euler_phi(n) ints each), as such a vector:
    sign times the last pivot of _bareiss."""
    d = euler_phi(n)
    a, sign = _bareiss(rows, n, len(rows), False)
    if a is None:
        return [0] * d
    if not a:
        return [1] + [0] * (d - 1)
    det = a[-1][-1]
    return [sign * det] if d == 1 else [sign * c for c in det]


def det_adj_int(rows, n: int):
    """(det, adj) of a square matrix over Z[zeta_n] of power-basis integer
    vectors, adj None where det = 0.  _bareiss with jordan takes [B | I] to
    [p I | X] with p = sign det(B), and X = p B^-1 = sign adj(B)."""
    d, size = euler_phi(n), len(rows)
    one, zero = [1] + [0] * (d - 1), [0] * d
    a, sign = _bareiss([list(r) + [one if i == j else zero for j in range(size)]
                        for i, r in enumerate(rows)], n, 2 * size, True)
    if a is None:
        return zero, None
    if not size:
        return one, []
    wrap = (lambda x: [sign * x]) if d == 1 else (lambda x: [sign * c for c in x])
    return wrap(a[-1][size - 1]), [[wrap(x) for x in row[size:]] for row in a]


class NotInSubfield:
    """Witness that an element is not fixed by Gal(Q(zeta_n)/Q(zeta_m))."""

    __slots__ = ("witness",)

    def __init__(self, witness: int):
        self.witness = witness

    def __repr__(self):
        return f"NotInSubfield(witness=sigma_{self.witness})"


def descend(x: CycloNum, m: int):
    """Re-express x with conductor m | n, or report a moving automorphism.

    Uses the compatible normalization zeta_m = zeta_n^(n/m).  Returns a
    CycloNum on success and a NotInSubfield witness otherwise.
    """
    n = x.n
    if n % m:
        raise ValueError(f"{m} does not divide the conductor {n}")
    if n == m:
        return x
    for a in range(2, n):
        if a % m == 1 and math.gcd(a, n) == 1:
            if x.galois(a) != x:
                return NotInSubfield(a)
    # Fixed by Gal(Q(zeta_n)/Q(zeta_m)): solve basis * y = num for the
    # coordinates y of den * x in the power basis of zeta_m = zeta_n^(n/m).
    # That basis is independent, so the pivots of the reduced system are its
    # first euler_phi(m) columns.
    from grax.linalg import rref

    dm = euler_phi(m)
    basis = [CycloNum.zeta(m, k).lift(n).num for k in range(dm)]
    rows, _ = rref([[Fraction(b[i]) for b in basis] + [Fraction(c)]
                    for i, c in enumerate(x.num)], dm)
    if any(row[dm] for row in rows[dm:]):
        raise ArithmeticError("descent solve failed for a Galois-fixed element")
    return _from_fractions(m, [row[dm] for row in rows[:dm]], x.den)
