"""Randomized algebraic properties of the group-algebra layer, via hypothesis.

These complement the seeded suites: hypothesis explores the input space
(including degenerate coefficient patterns) rather than fixed case counts.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          _galois_trivial, adjoint_star, class_product,
                          hash_involution, nrd, wedderburn, wedderburn_inverse)
from grax.cyclotomic import CycloNum
from grax.groups import group_from_catalog
from grax.linalg import ZERO, mat_mul
from grax.reps import galois_permutation, irreps

GROUPS = ["C1", "C4", "C2xC3", "S3", "D4", "Q8"]


def _gae(name):
    G = group_from_catalog(name)
    coeff = st.integers(min_value=-3, max_value=3)
    return st.lists(coeff, min_size=G.order, max_size=G.order).map(
        lambda cs: GroupAlgebraElement.from_coeffs(G, cs))


def _gam(name, n):
    G = group_from_catalog(name)
    return st.lists(st.lists(_gae(name), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda grid: GroupAlgebraMatrix.from_entries(G, grid))


group_names = st.sampled_from(GROUPS)


@settings(max_examples=40, deadline=None)
@given(group_names.flatmap(lambda n: st.tuples(_gae(n), _gae(n))))
def test_wedderburn_is_ring_homomorphism(pair_):
    x, y = pair_
    bx, by = wedderburn(x), wedderburn(y)
    for bsum, b1, b2 in zip(wedderburn(x + y), bx, by):
        assert all((bsum[i][j] - b1[i][j] - b2[i][j]).is_zero()
                   for i in range(len(bsum)) for j in range(len(bsum)))
    for bprod, b1, b2 in zip(wedderburn(x * y), bx, by):
        prod = mat_mul(b1, b2)
        assert all((bprod[i][j] - prod[i][j]).is_zero()
                   for i in range(len(bprod)) for j in range(len(bprod)))


@settings(max_examples=40, deadline=None)
@given(group_names.flatmap(_gae))
def test_wedderburn_roundtrip(x):
    back = wedderburn_inverse(x.group, wedderburn(x))
    assert (back - x).is_zero()


@settings(max_examples=25, deadline=None)
@given(group_names.flatmap(lambda n: st.tuples(_gam(n, 2), _gam(n, 2))))
def test_nrd_multiplicative(pair_):
    A, B = pair_
    assert nrd(A * B) == nrd(A) * nrd(B)


@settings(max_examples=25, deadline=None)
@given(group_names.flatmap(lambda n: _gam(n, 2)))
def test_adjoint_defining_identities(M):
    star = adjoint_star(M)
    n = nrd(M).to_group_algebra()
    for P in (M * star, star * M):
        for i in range(2):
            for j in range(2):
                want = n if i == j else GroupAlgebraElement.zero(M.group)
                assert (P.entries[i][j] - want).is_zero()


@settings(max_examples=25, deadline=None)
@given(group_names.flatmap(lambda n: _gam(n, 2)))
def test_transpose_involution_intertwines(M):
    assert nrd(M.transpose().involute_entries()) == hash_involution(nrd(M))


@settings(max_examples=40, deadline=None)
@given(group_names.flatmap(_gae))
def test_hash_involution_on_elements(x):
    assert (hash_involution(hash_involution(x)) - x).is_zero()


NONABELIAN_TO_24 = [f"D{n}" for n in range(3, 13)] + ["S3", "S4", "A4", "Q8"]


def _class_sum_element(G, u):
    coeffs = [0] * G.order
    for cls, a in zip(G.conjugacy_classes, u):
        for g in cls:
            coeffs[g] = a
    return GroupAlgebraElement.from_coeffs(G, coeffs)


@st.composite
def _class_vector_pairs(draw):
    G = group_from_catalog(draw(st.sampled_from(NONABELIAN_TO_24)))
    vec = st.lists(st.integers(-5, 5), min_size=len(G.conjugacy_classes),
                   max_size=len(G.conjugacy_classes))
    return G, draw(vec), draw(vec)


@settings(max_examples=60, deadline=None)
@given(_class_vector_pairs())
def test_class_product_is_the_group_ring_product(case):
    # oracle: multiply the two class sums in the group ring and read the
    # coefficients at the class representatives
    G, u, v = case
    prod = _class_sum_element(G, u) * _class_sum_element(G, v)
    want = [prod.coeffs[cls[0]] for cls in G.conjugacy_classes]
    assert [CycloNum.from_rational(c) for c in class_product(G, u, v)] == want


RATIONAL_TABLE = ["S3", "D4", "Q8", "S4"]
IRRATIONAL_TABLE = ["A4", "C12", "D5", "C5", "C8", "C2xC3"]


@st.composite
def _central_elements(draw):
    name = draw(st.sampled_from(RATIONAL_TABLE + IRRATIONAL_TABLE))
    G = group_from_catalog(name)
    q = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    if name in RATIONAL_TABLE:
        # every central value is rational here; store some at the exponent's
        # conductor, as block determinants come out
        values = [CycloNum.from_rational(draw(q)) for _ in irreps(G)]
        values = [v.lift(G.exponent) if draw(st.booleans()) else v for v in values]
        return CentralElement(G, tuple(values))
    return CentralElement.from_coords(G, [draw(q) for _ in G.conjugacy_classes])


@settings(max_examples=60, deadline=None)
@given(_central_elements())
def test_coords_is_fourier_inversion(x):
    G = x.group
    blocks = [[[v if i == j else ZERO for j in range(rep.degree)] for i in range(rep.degree)]
              for rep, v in zip(irreps(G), x.values)]
    elem = wedderburn_inverse(G, blocks)
    want = [elem.coeffs[cls[0]] for cls in G.conjugacy_classes]
    assert [CycloNum.from_rational(c) for c in x.coords()] == want


def test_galois_trivial_exactly_on_rational_character_tables():
    # oracle: the Galois action on the characters themselves
    for name in RATIONAL_TABLE + IRRATIONAL_TABLE:
        G = group_from_catalog(name)
        e = G.exponent
        fixed = all(galois_permutation(G, a) == tuple(range(len(irreps(G))))
                    for a in range(2, e) if math.gcd(a, e) == 1)
        assert _galois_trivial(G) == fixed == (name in RATIONAL_TABLE)


@pytest.mark.parametrize("name", ["Q8", "C5"])
def test_coords_refuses_a_galois_inconsistent_tuple(name):
    # the constructor would refuse these values, so they are placed past it
    G = group_from_catalog(name)
    x = CentralElement.one(G)
    values = (CycloNum.zeta(G.exponent),) + (CycloNum.from_rational(0),) * (len(x.values) - 1)
    object.__setattr__(x, "values", values)
    with pytest.raises(AssertionError, match="non-rational class coordinates"):
        x.coords()
