"""Exact cyclotomic arithmetic: spec examples and field-axiom properties."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax.cyclotomic import (CycloNum, NotInSubfield, _reduction_rows, _unit_generators,
                             cyclo_inverse, cyclo_make, cyclotomic_polynomial, descend,
                             euler_phi, galois_apply)


def test_make_degree_one_field():
    x = cyclo_make(1, [Fraction(3, 2)])
    assert x.is_rational() and x.as_rational() == Fraction(3, 2)


def test_make_zeta4_squares_to_minus_one():
    z = cyclo_make(4, [0, 1])
    assert z * z == -1


def test_make_zeta5_fifth_power_is_one():
    z = cyclo_make(5, [0, 1, 0, 0])
    assert z ** 5 == 1


def test_make_length_mismatch_rejected():
    with pytest.raises(ValueError):
        cyclo_make(4, [1])


def test_inverse_rational():
    assert cyclo_inverse(CycloNum.from_rational(2)).as_rational() == Fraction(1, 2)


def test_inverse_one_plus_zeta4():
    z = CycloNum.zeta(4)
    inv = cyclo_inverse(1 + z)
    assert inv == (1 - z) * Fraction(1, 2)
    assert inv * (1 + z) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyclo_inverse(CycloNum.from_rational(0))


def test_galois_identity():
    x = CycloNum.zeta(12) + 3
    assert galois_apply(1, x) == x


def test_galois_sigma3_on_zeta4():
    z = CycloNum.zeta(4)
    assert galois_apply(3, z) == -z


def test_galois_sigma3_on_real_zeta8_combination():
    z = CycloNum.zeta(8)
    y = z + z ** (-1)
    assert galois_apply(3, y) == -y


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        galois_apply(2, CycloNum.zeta(8))


def test_descend_zeta4_squared_to_rational():
    z = CycloNum.zeta(4)
    down = descend(z * z, 1)
    assert isinstance(down, CycloNum) and down.as_rational() == -1


def test_descend_zeta8_to_conductor4_witness():
    w = descend(CycloNum.zeta(8), 4)
    assert isinstance(w, NotInSubfield)
    assert w.witness == 5


def test_descend_rational_is_identity():
    x = CycloNum.from_rational(Fraction(7, 3)).lift(12)
    for m in (1, 2, 3, 4, 6, 12):
        down = descend(x, m)
        assert isinstance(down, CycloNum)
        assert down == Fraction(7, 3)


def test_cyclotomic_polynomial_samples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


_conductors = st.integers(min_value=1, max_value=40)


def _elements(n):
    d = euler_phi(n)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.lists(coeff, min_size=d, max_size=d).map(lambda cs: cyclo_make(n, cs))


@settings(max_examples=60, deadline=None)
@given(_conductors.flatmap(lambda n: st.tuples(_elements(n), _elements(n), _elements(n))))
def test_field_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(_conductors.flatmap(lambda n: st.tuples(st.just(n), _elements(n),
                                               st.integers(1, 200), st.integers(1, 200))))
def test_galois_composition(data):
    n, x, a, b = data
    a, b = 2 * a + 1, 2 * b + 1  # bias toward coprime candidates
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        return
    assert galois_apply(a, galois_apply(b, x)) == galois_apply((a * b) % n, x)


def _reference_reduce(poly, n):
    """Remainder of a Fraction polynomial (low degree first) on long division
    by the monic Phi_n, padded to phi(n) coefficients."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rem = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            for i, p in enumerate(phi):
                rem[k - d + i] -= c * p
    return tuple(rem[:d])


def _reference_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reference_reduce(prod, n)


def _assert_canonical(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert len(x.num) == euler_phi(x.n)
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1  # zero is (0, ..., 0)/1


def _coefficient_lists(n):
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-5, max_value=5, max_denominator=12))
    d = euler_phi(n)
    return st.lists(coeff, min_size=d, max_size=d)


@settings(max_examples=150, deadline=None)
@given(_conductors.flatmap(lambda n: st.tuples(
    st.just(n), _coefficient_lists(n), _coefficient_lists(n), st.integers(1, 120),
    st.integers(2, 3), st.fractions(min_value=-4, max_value=4, max_denominator=9))))
def test_integer_representation_matches_fraction_reference(data):
    n, cx, cy, a, step, q = data
    x, y = cyclo_make(n, cx), cyclo_make(n, cy)
    results = {
        "x": (x, tuple(cx)),
        "x + y": (x + y, tuple(u + v for u, v in zip(cx, cy))),
        "x - y": (x - y, tuple(u - v for u, v in zip(cx, cy))),
        "x * y": (x * y, _reference_mul(cx, cy, n)),
        "x * q": (x * q, tuple(u * q for u in cx)),
        "x - x": (x - x, (Fraction(0),) * len(cx)),
    }
    if q:
        results["x / q"] = (x / q, tuple(u / q for u in cx))
    if math.gcd(a, n) == 1:
        moved = [Fraction(0)] * n
        for k, c in enumerate(cx):
            moved[(a * k) % n] += c
        results["galois"] = (x.galois(a), _reference_reduce(moved, n))
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == want, name
        back = cyclo_make(got.n, got.coeffs)
        assert (back.num, back.den) == (got.num, got.den), name
    if not y.is_zero():
        quotient = x / y
        _assert_canonical(quotient)
        assert _reference_mul(quotient.coeffs, cy, n) == tuple(cx)
    # lift: zeta_n = zeta_m^(m/n), then reduce modulo Phi_m
    m = n * step
    spread = [Fraction(0)] * ((len(cx) - 1) * step + 1)
    for k, c in enumerate(cx):
        spread[k * step] = c
    up = x.lift(m)
    _assert_canonical(up)
    assert up.n == m and up.coeffs == _reference_reduce(spread, m)
    # equality across conductors
    assert up == x and x == up
    assert up + CycloNum.zeta(m) != x
    assert (up * y).n == m and up * y == x * y
    assert x.lift(m) - y == x - y


def test_mixed_conductor_arithmetic():
    z3, z4 = CycloNum.zeta(3), CycloNum.zeta(4)
    w = z3 * z4
    assert w ** 12 == 1
    assert w.n == 12


def test_reduction_table_is_thread_safe():
    # Every thread starts on an empty table for each conductor, so a shared
    # table built lazily by several threads at once would corrupt products.
    rng = random.Random(5)
    conductors = (5, 9, 12, 15, 16, 20, 21, 24)
    cases = [(n, cyclo_make(n, [rng.randrange(-3, 4) for _ in range(euler_phi(n))]),
              cyclo_make(n, [rng.randrange(-3, 4) for _ in range(euler_phi(n))]))
             for n in conductors for _ in range(3)]

    def work(order):
        out = {}
        for i in order:
            _, x, y = cases[i]
            prod = x * y
            inv = x.inverse() if not x.is_zero() else None
            out[i] = (prod.n, prod.coeffs, inv and (inv.n, inv.coeffs))
        return out

    _reduction_rows.cache_clear()
    want = work(range(len(cases)))
    orders = [rng.sample(range(len(cases)), len(cases)) for _ in range(8)]
    results = []
    threads = [threading.Thread(target=lambda o=o: results.append(work(o))) for o in orders]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _reduction_rows.cache_clear()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    assert all(r == want for r in results)


def _generated(gens, e):
    """The subgroup of (Z/e)^x generated by gens, by brute force."""
    out, frontier = {1 % e}, [1 % e]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % e
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def test_unit_generators_generate_the_units_greedily():
    assert _unit_generators(8) == (3, 5)
    assert _unit_generators(12) == (5, 7)
    assert _unit_generators(200) == (3, 7, 11)
    assert _unit_generators(24, 4) == (5, 13)
    assert _unit_generators(8, 8) == ()
    for e in range(1, 241):
        # m = 1 is every unit; each divisor m gives the units = 1 (mod m)
        for m in (m for m in range(1, e + 1) if e % m == 0):
            gens = _unit_generators(e, m)
            assert list(gens) == sorted(gens) and isinstance(gens, tuple)
            for k, g in enumerate(gens):
                assert math.gcd(g, e) == 1 and (g - 1) % m == 0
                assert g not in _generated(gens[:k], e)
            units = {a % e for a in range(1, e + 1) if math.gcd(a, e) == 1 and (a - 1) % m == 0}
            assert _generated(gens, e) == units


def test_descend_to_the_rationals_names_the_least_moving_automorphism():
    assert descend(CycloNum.zeta(8), 1).witness == 3
    assert descend(cyclo_make(3, [-3, -2]), 1).witness == 2
    assert descend(CycloNum.zeta(12), 1).witness == 5
    assert descend(CycloNum.zeta(12) ** 6, 1) == -1


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _descent_inputs(draw):
    """(x, m): x at conductor n, drawn at a conductor d | n and lifted, then
    summed with one of its conjugates, so that it is fixed by a subgroup
    that is often, but not always, the Galois group over Q(zeta_m)."""
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24]))
    m, d = draw(st.sampled_from(_divisors(n)[:-1])), draw(st.sampled_from(_divisors(n)))
    y = CycloNum(d, draw(st.lists(st.integers(-3, 3), min_size=euler_phi(d),
                                  max_size=euler_phi(d)))).lift(n)
    a = draw(st.sampled_from([a for a in range(1, n) if math.gcd(a, n) == 1]))
    return (y + y.galois(a) if draw(st.booleans()) else y) * Fraction(1, draw(st.integers(1, 4))), m


@settings(max_examples=300, deadline=None)
@given(_descent_inputs())
def test_descend_witness_is_the_least_moving_unit(case):
    # the oracle scans every unit a = 1 (mod m), not only the generators
    x, m = case
    n = x.n
    moving = [a for a in range(2, n)
              if (a - 1) % m == 0 and math.gcd(a, n) == 1 and x.galois(a) != x]
    down = descend(x, m)
    if moving:
        assert isinstance(down, NotInSubfield) and down.witness == moving[0]
    else:
        assert isinstance(down, CycloNum) and down.n == m and down.lift(n) == x
