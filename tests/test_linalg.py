"""The elimination kernel and its readers, against oracles that do not use it:
a Leibniz determinant written here, and matrix products."""

import itertools

from hypothesis import given, settings, strategies as st

from grax.cyclotomic import CycloNum, cyclo_make, descend, euler_phi
from grax.linalg import (ONE, ZERO, left_kernel, mat_det, mat_identity, mat_inverse,
                         mat_mul, mat_rank, row_basis)

CONDUCTORS = (1, 4, 8, 12)

small = st.integers(-2, 2)


@st.composite
def cyclo(draw, n):
    # mostly zeros and rationals, so that singular matrices are common
    kind = draw(st.sampled_from(("zero", "rational", "general")))
    if kind == "zero":
        return ZERO
    if kind == "rational":
        return CycloNum.from_rational(draw(small))
    return cyclo_make(n, draw(st.lists(small, min_size=euler_phi(n), max_size=euler_phi(n))))


@st.composite
def matrices(draw, square=False):
    n = draw(st.sampled_from(CONDUCTORS))
    rows = draw(st.integers(0, 4))
    cols = rows if square else draw(st.integers(0, 4))
    m = [[draw(cyclo(n)) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and cols and draw(st.booleans()):
        # force a dependent row
        f = draw(cyclo(n))
        m[-1] = [m[0][j] * f for j in range(cols)]
    return m


def leibniz(m):
    n = len(m)
    acc = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ONE if inversions % 2 == 0 else -ONE
        for i in range(n):
            term = term * m[i][perm[i]]
        acc = acc + term
    return acc


def is_zero_matrix(m):
    return all(x.is_zero() for row in m for x in row)


@settings(max_examples=80, deadline=None)
@given(matrices(square=True))
def test_det_matches_leibniz(m):
    want = leibniz(m)
    assert mat_det(m) == want
    assert (mat_rank(m) == len(m)) == (not want.is_zero())


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_inverse_is_two_sided(m):
    inv = mat_inverse(m)
    if leibniz(m).is_zero():
        assert inv is None
        return
    ident = mat_identity(len(m))
    assert mat_mul(m, inv) == ident
    assert mat_mul(inv, m) == ident


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_left_kernel_annihilates_and_has_corank_rows(m):
    kernel = left_kernel(m)
    assert len(kernel) == len(m) - mat_rank(m)
    if kernel and m[0]:
        assert is_zero_matrix(mat_mul(kernel, m))
    assert mat_rank(kernel) == len(kernel)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_row_basis_has_rank_rows(m):
    basis = row_basis(m)
    rank = mat_rank(m)
    assert len(basis) == rank
    assert mat_rank(basis) == rank
    if m and m[0]:
        # the basis spans every row of m
        assert mat_rank(basis + m) == rank


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(m, n) for m in CONDUCTORS for n in CONDUCTORS if n % m == 0]),
       st.data())
def test_descend_inverts_lift(pair, data):
    m, n = pair
    y = data.draw(cyclo(m))
    back = descend(y.lift(n), m)
    assert isinstance(back, CycloNum)
    assert back == y
