"""Hermite and Smith normal forms: spec examples and canonicity properties."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from grax.lattices import _insert, hnf, smith_normal_form


def test_hnf_diagonal_input():
    assert hnf([[2, 0], [0, 2]]).basis == ((2, 0), (0, 2))


def test_hnf_full_lattice():
    # brute-force closure of {(2,0),(0,3),(1,1)} under subtraction reaches
    # (1,0) and (0,1), so the span is all of Z^2
    L = hnf([[2, 0], [0, 3], [1, 1]])
    assert L.basis == ((1, 0), (0, 1))


def test_hnf_empty_is_zero_lattice():
    L = hnf([])
    assert L.rank == 0 and L.basis == ()


@pytest.mark.parametrize("bad", [Fraction(3, 2), 2.5])
def test_hnf_refuses_non_integer_generators(bad):
    # truncating them would span the wrong lattice
    with pytest.raises(ValueError, match="integer generators"):
        hnf([[bad, 0], [0, 2]])


def test_hnf_accepts_integral_fractions():
    assert hnf([[Fraction(4, 2), 0], [0, 3]]).basis == ((2, 0), (0, 3))


def test_membership_and_local_membership():
    L = hnf([[2, 0], [0, 3]])
    assert L.contains([2, 3])
    assert not L.contains([1, 0])


def test_snf_diag_2_3():
    inv, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert inv == (1, 6)


def test_snf_identity_and_zero():
    assert smith_normal_form([[1, 0], [0, 1]])[0] == (1, 1)
    assert smith_normal_form([[0, 0], [0, 0]])[0] == (0, 0)


_mats = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-8, 8), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


@settings(max_examples=120, deadline=None)
@given(_mats)
def test_snf_transforms_and_chain(M):
    inv, U, V = smith_normal_form(M)
    D = _matmul(_matmul(U, M), V)
    for i in range(len(M)):
        for j in range(len(M[0])):
            want = inv[i] if (i == j and i < len(inv)) else 0
            assert D[i][j] == want
    for i in range(len(inv) - 1):
        if inv[i + 1]:
            assert inv[i] and inv[i + 1] % inv[i] == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_snf_preserves_absolute_determinant(M):
    def det(A):
        n = len(A)
        if n == 1:
            return A[0][0]
        return sum((-1) ** j * A[0][j] * det([r[:j] + r[j + 1:] for r in A[1:]])
                   for j in range(n))

    inv, _, _ = smith_normal_form(M)
    prod = 1
    for d in inv:
        prod *= d
    assert abs(det(M)) == abs(prod)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.randoms(use_true_random=False))
def test_hnf_canonical_under_order_and_duplication(gens, rnd):
    L1 = hnf(gens)
    shuffled = list(gens) + [gens[0]]
    rnd.shuffle(shuffled)
    assert hnf(shuffled) == L1
    assert hnf([list(r) for r in L1.basis], 3) == L1


def _laplace_det(A):
    if not A:
        return 1
    return sum((-1) ** j * A[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in A[1:]])
               for j in range(len(A)) if A[0][j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                       min_size=n, max_size=n + 4)))
def test_hnf_holds_generators_and_pivot_product_is_minor_gcd(gens):
    # rows beyond the first full-rank set are inserted modulo the pivot product
    n = len(gens[0])
    L = hnf(gens)
    assert all(L.contains(g) for g in gens)
    g = 0
    for rows in itertools.combinations(gens, n):
        g = math.gcd(g, _laplace_det(list(rows)))
    if g == 0:
        assert L.rank < n
    else:
        assert L.rank == n
        assert math.prod(L.basis[i][i] for i in range(n)) == g


def _rational_member(basis, vec):
    """Rational back-substitution: the coefficients over the basis rows must
    exist and be integers."""
    vec = [Fraction(v) for v in vec]
    coeffs = []
    for row in basis:
        j = next(k for k, v in enumerate(row) if v)
        c = vec[j] / row[j]
        coeffs.append(c)
        vec = [v - c * r for v, r in zip(vec, row)]
    return not any(vec) and all(c.denominator == 1 for c in coeffs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.integers(1, 3),
       st.one_of(st.just([0, 0, 0]),
                 st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
def test_contains_agrees_with_rational_back_substitution(gens, coeffs, divisor, noise):
    L = hnf(gens)
    combo = [sum(c * g[k] for c, g in zip(coeffs, gens)) + noise[k] for k in range(3)]
    vec = combo if divisor == 1 else [Fraction(v, divisor) for v in combo]
    assert L.contains(vec) == _rational_member(L.basis, vec)


def test_full_rank_insertion_keeps_entries_below_the_index():
    # once the basis has full rank, inserted vectors and rewritten rows are
    # reduced modulo the pivot product, so no entry outgrows the first one
    rng = random.Random(3)
    n, D = 6, 2 ** 4 * 3 ** 3 * 5
    basis = [[D * (i == j) for j in range(n)] for i in range(n)]
    for _ in range(20):
        _insert(basis, [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(n)])
        assert all(0 <= v < D ** n for i, row in enumerate(basis) for v in row[i + 1:])
