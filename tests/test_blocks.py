"""Integer Wedderburn blocks and their fraction-free determinants, checked
against the splitting field: blocks summed from the CycloNum matrices of
each representation (rep_of_element) and determinants by linalg.mat_det.
Also the one boundary of the block path: a coefficient outside Q is refused
everywhere with the same ValueError."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax.algebra import (GroupAlgebraElement, GroupAlgebraMatrix, adjoint_star, gam_inverse,
                          nrd, nrd_op, wedderburn_block)
from grax.cyclotomic import CycloNum, det_int, euler_phi
from grax.fitting import (Budget, fit_matrix, lattice_from_central, leibniz_det,
                          regular_int_rows, xi_approx)
from grax.groups import group_from_catalog
from grax.linalg import mat_det
from grax.reps import irreps

CONDUCTORS = [1, 3, 4, 5, 8, 12]


@st.composite
def _int_matrices(draw):
    """(n, rows): a square matrix over Z[zeta_n] of size 0-6, with entries
    as power-basis integer vectors, in one of five shapes."""
    n = draw(st.sampled_from(CONDUCTORS))
    size = draw(st.integers(0, 6))
    vec = st.one_of(st.just([0] * euler_phi(n)),
                    st.lists(st.integers(-3, 3), min_size=euler_phi(n), max_size=euler_phi(n)))
    rows = [[draw(vec) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(["random", "repeated row", "zero corner", "zero column",
                                  "late zero pivot"]))
    if size >= 2 and shape == "repeated row":
        rows[draw(st.integers(1, size - 1))] = [list(v) for v in rows[0]]
    elif size >= 1 and shape == "zero corner":
        # the first pivot needs a swap
        rows[0][0] = [0] * euler_phi(n)
    elif size >= 1 and shape == "zero column":
        for row in rows:
            row[0] = [0] * euler_phi(n)
    elif size >= 3 and shape == "late zero pivot":
        # the leading 2x2 minor vanishes, so after the first step the
        # second pivot is zero even where the entry was not
        t = draw(st.integers(-3, 3))
        rows[1][:2] = [[t * c for c in rows[0][0]], [t * c for c in rows[0][1]]]
    return n, rows


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_bareiss_det_matches_field_det(case):
    n, rows = case
    field = [[CycloNum(n, v) for v in row] for row in rows]
    assert CycloNum(n, det_int(rows, n)) == mat_det(field)


CATALOG_TO_24 = sorted({group_from_catalog(name).name for name in
                        [f"C{k}" for k in range(1, 25)]
                        + [f"C{a}xC{b}" for a in range(2, 5) for b in range(a, 24 // a + 1)]
                        + [f"D{k}" for k in range(3, 13)] + ["S3", "S4", "A4", "Q8"]})


@st.composite
def _rational_matrices(draw):
    G = group_from_catalog(draw(st.sampled_from(CATALOG_TO_24)))
    size = draw(st.integers(0, 2))
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=6))
    grid = [[GroupAlgebraElement.from_coeffs(
                G, draw(st.lists(coeff, min_size=G.order, max_size=G.order)))
             for _ in range(size)] for _ in range(size)]
    return GroupAlgebraMatrix.from_entries(G, grid)


def rep_of_element(x, rep):
    """The matrix sum(coeff_g * rho(g)) over the splitting field, from the
    CycloNum matrices of rep (not its integer images)."""
    c = rep.degree
    out = [[CycloNum.from_rational(0)] * c for _ in range(c)]
    for a, m in zip(x.coeffs, rep.matrices):
        if a:
            for i in range(c):
                for j in range(c):
                    out[i][j] = out[i][j] + a * m[i][j]
    return out


def _field_block(M, rep):
    """The block of M at rep over the splitting field, one rep_of_element
    per entry."""
    c = rep.degree
    out = [[CycloNum.from_rational(0)] * (M.cols * c) for _ in range(M.rows * c)]
    for u, row in enumerate(M.entries):
        for v, e in enumerate(row):
            for i, brow in enumerate(rep_of_element(e, rep)):
                out[u * c + i][v * c:(v + 1) * c] = brow
    return out


@settings(max_examples=60, deadline=None)
@given(_rational_matrices())
def test_nrd_is_the_field_determinant_of_each_block(M):
    # non-integral coefficients: each row's denominator is cleared once
    values = nrd(M).values
    for rep, value in zip(irreps(M.group), values):
        assert value == mat_det(_field_block(M, rep))


@settings(max_examples=60, deadline=None)
@given(_rational_matrices())
def test_nrd_op_is_the_field_determinant_of_each_transposed_block(M):
    # the opposite-algebra block: each deg x deg sub-block transposed in place
    for rep, value in zip(irreps(M.group), nrd_op(M).values):
        c, blk = rep.degree, _field_block(M, rep)
        op = [[blk[U - U % c + V % c][V - V % c + U % c] for V in range(len(blk))]
              for U in range(len(blk))]
        assert value == mat_det(op)


def _zeta4_matrix(name):
    G = group_from_catalog(name)
    zeta = GroupAlgebraElement.basis(G, 0, CycloNum.zeta(4))
    return GroupAlgebraMatrix.from_entries(G, [[zeta]])


@pytest.mark.parametrize("name, compute", [
    ("Q8", lambda M: wedderburn_block(M, 4)),
    ("Q8", nrd),
    ("Q8", nrd_op),
    ("Q8", adjoint_star),
    ("Q8", gam_inverse),
    ("C4", lambda M: fit_matrix(M, 0)),
    ("Q8", lambda M: fit_matrix(M, 0, Budget(max_matrix_size=1))),
    ("C4", lambda M: leibniz_det(M.group, M.entries)),
    ("Q8", regular_int_rows),
], ids=["wedderburn_block", "nrd", "nrd_op", "adjoint_star", "gam_inverse", "fit_matrix-C4",
        "fit_matrix-Q8", "leibniz_det", "regular_int_rows"])
def test_non_rational_coefficient_is_refused(name, compute):
    with pytest.raises(ValueError, match="rational coefficients"):
        compute(_zeta4_matrix(name))


@functools.cache
def _xi(name):
    return xi_approx(group_from_catalog(name))


def _per_minor_fit(M, a, budget, xi):
    """The Fitting lattice from one reduced norm per minor matrix: the minors
    with at most a columns of M replaced by pool columns, each times every
    basis element of xi."""
    G = M.group
    one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
    pool = [[one if k == i else zero for k in range(M.rows)] for i in range(M.rows)]
    if budget.coeff_height >= 2:
        pool += [[one if k == i else one * h if k == j else zero for k in range(M.rows)]
                 for i, j in itertools.combinations(range(M.rows), 2)
                 for h in range(1, budget.coeff_height + 1)]
    norms = []
    for t in range(min(a, M.cols) + 1):
        for replaced in itertools.combinations(range(M.cols), t):
            for cols in itertools.product(pool, repeat=t):
                for rows in itertools.combinations(range(M.rows), M.cols):
                    grid = [[cols[replaced.index(j)][i] if j in replaced else M.entries[i][j]
                             for j in range(M.cols)] for i in rows]
                    norms.append(nrd(GroupAlgebraMatrix.from_entries(G, grid)))
    return lattice_from_central(G, [x * y for x in norms for y in xi.elements()])


@st.composite
def _fit_cases(draw):
    name = draw(st.sampled_from(["S3", "D4", "Q8"]))
    G = group_from_catalog(name)
    rows, cols = draw(st.sampled_from([(2, 2), (3, 2)]))
    coeff = st.one_of(st.just(Fraction(0)), st.integers(-2, 2).map(Fraction),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
    grid = [[GroupAlgebraElement.from_coeffs(
                G, draw(st.lists(coeff, min_size=G.order, max_size=G.order)))
             for _ in range(cols)] for _ in range(rows)]
    return (GroupAlgebraMatrix.from_entries(G, grid), draw(st.integers(0, 2)),
            Budget(coeff_height=draw(st.integers(1, 2))))


@settings(max_examples=15, deadline=None)
@given(_fit_cases())
def test_fit_matrix_matches_per_minor_norms(case):
    M, a, budget = case
    xi = _xi(M.group.name)
    assert fit_matrix(M, a, budget, xi) == _per_minor_fit(M, a, budget, xi)
