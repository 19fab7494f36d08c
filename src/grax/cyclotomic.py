"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as coordinate vectors in the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1) modulo the n-th cyclotomic polynomial,
with Fraction coefficients.  Equality across conductors goes through the
compatible system zeta_m = zeta_n^(n/m) for m | n, so mixed-conductor
arithmetic is well defined.  Inversion and descent solve a linear system
over Q on the elimination kernel in `grax.linalg`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows r_k = coordinates of zeta_n^(phi(n)+k) in the power basis, for
    every exponent the package reduces: below max(n, 2*phi(n) - 1).

    Built whole on first use and never mutated, so concurrent readers
    share it safely.
    """
    d = euler_phi(n)
    # zeta^d = -(phi[0] + phi[1] z + ... + phi[d-1] z^(d-1))
    base = tuple(Fraction(-c) for c in cyclotomic_polynomial(n)[:d])
    rows = [base]
    for _ in range(max(n, 2 * d - 1) - d - 1):
        prev = rows[-1]
        shifted = [_ZERO] + list(prev[:-1])
        top = prev[-1]
        if top:
            shifted = [shifted[i] + top * base[i] for i in range(d)]
        rows.append(tuple(shifted))
    return tuple(rows)


def _reduce_poly(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Reduce a low-first coefficient list modulo Phi_n to length phi(n)."""
    d = euler_phi(n)
    if len(coeffs) <= d:
        return coeffs + [_ZERO] * (d - len(coeffs))
    rows = _reduction_rows(n)
    out = list(coeffs[:d])
    for k in range(d, len(coeffs)):
        c = coeffs[k]
        if not c:
            continue
        row = rows[k - d]
        for i in range(d):
            if row[i]:
                out[i] += c * row[i]
    return out


class CycloNum:
    """An element of Q(zeta_n), exact coefficients in the power basis mod Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNum":
        return CycloNum(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CycloNum":
        power %= n
        coeffs = [_ZERO] * n
        coeffs[power] = _ONE
        return CycloNum(n, _reduce_poly(coeffs, n))

    # -- structure ----------------------------------------------------

    def lift(self, m: int) -> "CycloNum":
        """Re-express in Q(zeta_m) for n | m, via zeta_n = zeta_m^(m/n)."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift conductor {self.n} into {m}")
        step = m // self.n
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] += c
        return CycloNum(m, _reduce_poly(out, m))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def is_integral(self) -> bool:
        """Whether the element lies in Z[zeta_n] (an integral basis)."""
        return all(c.denominator == 1 for c in self.coeffs)

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

    def __add__(self, other):
        if isinstance(other, CycloNum):
            if self.n == 1 and not self.coeffs[0]:
                return other
            if other.n == 1 and not other.coeffs[0]:
                return self
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.n, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycloNum(a.n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNum(self.n, tuple(c * q for c in self.coeffs))
        if isinstance(other, CycloNum):
            if self.n == 1:
                return other * self.coeffs[0]
            if other.n == 1:
                return self * other.coeffs[0]
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        d = len(a.coeffs)
        prod = [_ZERO] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return CycloNum(a.n, _reduce_poly(prod, a.n))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: solve self * x = 1 for the coordinates of x.

        Column k of the phi(n) x phi(n) system holds self * zeta^k, built
        from column k - 1 by one shift and one fold of zeta^phi(n)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        from grax.linalg import rref

        d = euler_phi(self.n)
        zeta_d = _reduction_rows(self.n)[0]
        cols = [list(self.coeffs)]
        for _ in range(d - 1):
            top, col = cols[-1][-1], [_ZERO] + cols[-1][:-1]
            cols.append([x + top * z if z else x for x, z in zip(col, zeta_d)] if top else col)
        rows, pivots = rref([[col[i] for col in cols] + [_ONE if i == 0 else _ZERO]
                             for i in range(d)], d)
        if len(pivots) < d:
            raise ArithmeticError("multiplication by a nonzero element is singular")
        return CycloNum(self.n, [row[d] for row in rows])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNum(self.n, tuple(c / q for c in self.coeffs))
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
        n = self.n
        out = [_ZERO] * n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(a * k) % n] += c
        return CycloNum(n, _reduce_poly(out, n))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    # Equality is conductor-independent but the coefficient tuple is not,
    # so no hash is representation-safe without a normalization pass.
    __hash__ = None

    def __repr__(self):
        if self.is_rational():
            return f"CycloNum({self.coeffs[0]})"
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
    return CycloNum(n, coeffs)


def cyclo_inverse(x: CycloNum) -> CycloNum:
    return x.inverse()


def galois_apply(a: int, x: CycloNum) -> CycloNum:
    return x.galois(a)


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
    # Fixed by Gal(Q(zeta_n)/Q(zeta_m)): solve for coordinates in the
    # power basis of zeta_m = zeta_n^(n/m).  That basis is independent, so
    # the pivots of the reduced system are its first euler_phi(m) columns.
    from grax.linalg import rref

    dm = euler_phi(m)
    basis = [CycloNum.zeta(m, k).lift(n) for k in range(dm)]
    rows, _ = rref([[b.coeffs[i] for b in basis] + [c] for i, c in enumerate(x.coeffs)], dm)
    if any(row[dm] for row in rows[dm:]):
        raise ArithmeticError("descent solve failed for a Galois-fixed element")
    return CycloNum(m, [row[dm] for row in rows[:dm]])
