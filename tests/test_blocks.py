"""Integer Wedderburn blocks, their fraction-free determinants and adjugates,
and the integer Fourier inversion, checked against the splitting field:
blocks summed from a CycloNum view of each representation's integer
images (field_view.field_matrices, in rep_of_element), determinants by
linalg.mat_det, ranks by linalg.mat_rank, inverses by linalg.mat_inverse,
and the CycloNum Fourier
loop over rho(g^-1).  Also the
one boundary of the block path: a coefficient outside Q is refused where
the matrix is built, with the same ValueError, so no path meets one."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix, adjoint_star,
                          cleared_rows, gam_inverse, int_block, matrix_from_blocks, nrd, nrd_op,
                          wedderburn_block)
from grax.cyclotomic import CycloNum, det_adj_int, det_int, euler_phi, rank_int
from grax.fitting import (Budget, fit_matrix, lattice_from_central, leibniz_det,
                          regular_int_rows, xi_approx)
from grax.groups import group_from_catalog
from grax.linalg import mat_det, mat_inverse, mat_rank
from grax.reps import irreps

from field_view import field_matrices

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


@settings(max_examples=200, deadline=None)
@given(_int_matrices())
def test_bareiss_adjugate_is_det_times_the_field_inverse(case):
    n, rows = case
    det, adj = det_adj_int(rows, n)
    assert det == det_int(rows, n)
    inv = mat_inverse([[CycloNum(n, v) for v in row] for row in rows])
    if inv is None:
        assert adj is None and not any(det)
    else:
        assert [[CycloNum(n, v) for v in row] for row in adj] == \
            [[CycloNum(n, det) * x for x in row] for row in inv]


@settings(max_examples=200, deadline=None)
@given(_int_matrices())
def test_bareiss_rank_matches_field_rank(case):
    n, rows = case
    assert rank_int(rows, n) == mat_rank([[CycloNum(n, v) for v in row] for row in rows])


@st.composite
def _products(draw):
    """A B over a group, A r x k and B k x c, in one of three shapes: tall
    (r > c), wide (r < c), and deficient (k < min(r, c), so that every block
    of A B has rank below its size).  Sparse coefficients, some halves, make
    blocks of lower rank at single characters as well."""
    G = group_from_catalog(draw(st.sampled_from(["C3", "C4", "C12", "S3", "Q8", "A4"])))
    r, k, c = draw(st.sampled_from([(3, 2, 2), (3, 1, 2), (2, 2, 3), (1, 1, 3),
                                    (2, 1, 2), (3, 2, 3)]))
    coeff = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])

    def matrix(rows, cols):
        return GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.from_coeffs(
            G, draw(st.lists(coeff, min_size=G.order, max_size=G.order)))
            for _ in range(cols)] for _ in range(rows)])
    return matrix(r, k) * matrix(k, c)


@settings(max_examples=120, deadline=None)
@given(_products())
def test_rank_int_of_a_block_matches_the_field_rank(M):
    rows, _ = cleared_rows(M.entries)
    for chi, rep in enumerate(irreps(M.group)):
        assert (rank_int(int_block(rows, rep), rep.conductor)
                == mat_rank(wedderburn_block(M, chi)))


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
    """The matrix sum(coeff_g * rho(g)) over the splitting field, summed in
    CycloNum over the test-side view of rep (not int_block)."""
    c = rep.degree
    out = [[CycloNum.from_rational(0)] * c for _ in range(c)]
    for a, m in zip(x.coeffs, field_matrices(rep)):
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


def _field_fourier(M, blocks):
    """The matrix over the splitting field with the given block at each
    character: coefficient g of entry (u, v) is
    (1/|G|) sum_chi chi(1) tr(A_chi rho_chi(g^-1)), summed in CycloNum over
    the test-side view of the representations."""
    G, reps = M.group, irreps(M.group)
    views = [field_matrices(rep) for rep in reps]
    grid = []
    for u in range(M.rows):
        row = []
        for v in range(M.cols):
            coeffs = []
            for g in range(G.order):
                acc = CycloNum.from_rational(0)
                for rep, view, b in zip(reps, views, blocks):
                    c, m = rep.degree, view[G.inv(g)]
                    for i in range(c):
                        for j in range(c):
                            acc = acc + b[u * c + i][v * c + j] * m[j][i] * c
                coeffs.append(acc / G.order)
            row.append(GroupAlgebraElement.from_coeffs(G, coeffs))
        grid.append(row)
    return GroupAlgebraMatrix.from_entries(G, grid)


def field_adjoint(M):
    """M* over the splitting field: det(A) A^-1 for each field block A, the
    zero block where det(A) = 0, reassembled by _field_fourier."""
    blocks = []
    for rep in irreps(M.group):
        blk = _field_block(M, rep)
        det = mat_det(blk)
        inv = None if det.is_zero() else mat_inverse(blk)
        blocks.append([[CycloNum.from_rational(0) if inv is None else det * inv[i][j]
                        for j in range(len(blk))] for i in range(len(blk))])
    return _field_fourier(M, blocks)


def field_inverse(M):
    """M^-1 over the splitting field, None where a block is singular."""
    blocks = [mat_inverse(_field_block(M, rep)) for rep in irreps(M.group)]
    return None if None in blocks else _field_fourier(M, blocks)


ADJOINT_GROUPS = ["S3", "D4", "Q8", "S4", "A4", "D5", "C12"]


@st.composite
def _adjoint_inputs(draw):
    """A rational 0x0-3x3 matrix over a group of ADJOINT_GROUPS, with zero
    coefficients weighted up so that singular blocks occur."""
    G = group_from_catalog(draw(st.sampled_from(ADJOINT_GROUPS)))
    size = draw(st.integers(0, 3))
    coeff = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.integers(-2, 2).map(Fraction),
                      st.fractions(min_value=-2, max_value=2, max_denominator=4))
    grid = [[GroupAlgebraElement.from_coeffs(
                G, draw(st.lists(coeff, min_size=G.order, max_size=G.order)))
             for _ in range(size)] for _ in range(size)]
    return GroupAlgebraMatrix.from_entries(G, grid)


def _singular_inputs():
    """Inputs with singular blocks: 1+g over C2 (zero at the sign
    character), and over S3 1+s for a transposition s, whose degree-2 block
    has rank 1, alone and on the diagonal of a 2x2 with a denominator."""
    C2, S3 = group_from_catalog("C2"), group_from_catalog("S3")
    s = next(g for g in range(S3.order) if S3.element_order(g) == 2)
    one_s = GroupAlgebraElement.from_coeffs(
        S3, [Fraction(1) if g in (0, s) else Fraction(0) for g in range(S3.order)])
    half = GroupAlgebraElement.basis(S3, 0, Fraction(1, 2))
    zero = GroupAlgebraElement.zero(S3)
    return [GroupAlgebraMatrix.from_entries(C2, [[GroupAlgebraElement.from_coeffs(C2, [1, 1])]]),
            GroupAlgebraMatrix.from_entries(S3, [[one_s]]),
            GroupAlgebraMatrix.from_entries(S3, [[one_s, zero], [half, half]])]


@pytest.mark.parametrize("M", _singular_inputs(), ids=["C2-one-plus-g", "S3-one-plus-s", "S3-2x2"])
def test_adjoint_has_zero_blocks_where_the_field_block_is_singular(M):
    dets = [mat_det(_field_block(M, rep)) for rep in irreps(M.group)]
    assert any(d.is_zero() for d in dets) and not all(d.is_zero() for d in dets)
    assert adjoint_star(M) == field_adjoint(M)
    assert gam_inverse(M) is None


@settings(max_examples=40, deadline=None)
@given(_adjoint_inputs())
def test_adjoint_and_inverse_match_the_field_path(M):
    assert adjoint_star(M) == field_adjoint(M)
    assert gam_inverse(M) == field_inverse(M)


@settings(max_examples=30, deadline=None)
@given(_rational_matrices())
def test_matrix_from_blocks_inverts_wedderburn_block(M):
    blocks = [wedderburn_block(M, chi) for chi in range(len(irreps(M.group)))]
    assert matrix_from_blocks(M.group, M.rows, M.cols, blocks) == M
    assert _field_fourier(M, blocks) == M


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


def _scalar_matrix(name, c):
    G = group_from_catalog(name)
    return GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.basis(G, 0, c)]])


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
    # a zeta_4 coefficient is refused where the matrix is built, so it never
    # reaches compute; zeta_4^2 = -1, a rational CycloNum at conductor 4,
    # is accepted and read as -1
    with pytest.raises(ValueError, match="rational coefficients"):
        _scalar_matrix(name, CycloNum.zeta(4))
    minus = CycloNum.zeta(4) * CycloNum.zeta(4)
    assert minus.n == 4
    assert compute(_scalar_matrix(name, minus)) == compute(_scalar_matrix(name, -1))


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
    # a up to cols + 1 replaces every column (the empty minor is 1), uses a
    # basis column twice and leaves rows unselected; coeff_height 2 mixes
    # combination columns with basis columns
    rows, cols = draw(st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2)]))
    coeff = st.one_of(st.just(Fraction(0)), st.integers(-2, 2).map(Fraction),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
    grid = [[GroupAlgebraElement.from_coeffs(
                G, draw(st.lists(coeff, min_size=G.order, max_size=G.order)))
             for _ in range(cols)] for _ in range(rows)]
    return (GroupAlgebraMatrix.from_entries(G, grid), draw(st.integers(0, cols + 1)),
            Budget(coeff_height=draw(st.integers(1, 2))), draw(st.booleans()))


def _unit_lattice(G):
    """Z*1 in place of xi: the Fitting lattice is then the span of the
    minors' reduced norms alone, so a Laplace sign eps_chi = -1 that xi
    would absorb (nrd(-1) is a Whitehead generator) shows."""
    return lattice_from_central(G, [CentralElement.one(G)])


@pytest.mark.parametrize("name", ["S3", "Q8"])
@pytest.mark.parametrize("rows, cols, a", [(3, 3, 4), (4, 2, 3)])
def test_fit_matrix_matches_per_minor_norms_at_fixed_shapes(rows, cols, a, name):
    # a > cols replaces every column (the empty minor), uses basis columns
    # twice and beside combination columns, and leaves rows unselected
    G = group_from_catalog(name)
    rng = random.Random(3)
    M = GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.from_coeffs(
        G, [Fraction(rng.randrange(-2, 3), rng.choice([1, 3])) for _ in range(G.order)])
        for _ in range(cols)] for _ in range(rows)])
    budget, unit = Budget(coeff_height=2), _unit_lattice(G)
    assert fit_matrix(M, a, budget, unit) == _per_minor_fit(M, a, budget, unit)


@pytest.mark.parametrize("name", ["S3", "Q8"])
def test_fit_matrix_keeps_the_laplace_sign(name):
    # [[0, x], [x, 0]] at a = 1: nrd of the matrix and both nonzero entries
    # with one replaced column come with eps, eps_chi = (-1)^chi(1), and
    # their span over Z*1 differs from the span without eps
    G = group_from_catalog(name)
    x = GroupAlgebraElement.from_coeffs(G, [2, 0, 1] + [0] * (G.order - 3))
    zero = GroupAlgebraElement.zero(G)
    M = GroupAlgebraMatrix.from_entries(G, [[zero, x], [x, zero]])
    unit, n = _unit_lattice(G), nrd(GroupAlgebraMatrix.from_entries(G, [[x]]))
    got = fit_matrix(M, 1, Budget(), unit)
    assert got == _per_minor_fit(M, 1, Budget(), unit)
    assert got != lattice_from_central(G, [n, n * n])


@settings(max_examples=15, deadline=None)
@given(_fit_cases())
def test_fit_matrix_matches_per_minor_norms(case):
    M, a, budget, unit = case
    xi = _unit_lattice(M.group) if unit else _xi(M.group.name)
    assert fit_matrix(M, a, budget, xi) == _per_minor_fit(M, a, budget, xi)
