"""Hermite and Smith normal forms: spec examples and canonicity properties."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from grax import lattices
from grax.groups import group_from_catalog
from grax.lattices import _hermite, _xgcd, hnf, smith_normal_form


# -- the reference kernel ------------------------------------------------------
# The insertion kernel hnf ran before _hermite: a basis list scanned for each
# pivot and re-sorted on each append, the pivot product recomputed on each
# insertion, and the vector reduced modulo it at every column.  The HNF is
# unique, so both kernels must return the same basis.

def _ref_pivot(row) -> int:
    return next(j for j, v in enumerate(row) if v)


def _ref_index(basis, ncols: int) -> int:
    if len(basis) < ncols:
        return 0
    return math.prod(row[i] for i, row in enumerate(basis))


def _ref_mod_from(row, j: int, d: int):
    return row[:j] + [v % d for v in row[j:]]


def _ref_insert(basis, vec):
    ncols = len(vec)
    d = _ref_index(basis, ncols)
    for j in range(ncols):
        if d:
            vec = _ref_mod_from(vec, j, d)
        if not vec[j]:
            continue
        row = basis[j] if d else next((r for r in basis if _ref_pivot(r) == j), None)
        if row is None:
            if vec[j] < 0:
                vec = [-v for v in vec]
            basis.append(vec)
            basis.sort(key=_ref_pivot)
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
                new_row = _ref_mod_from(new_row, j + 1, d)
            row[:] = new_row


def _reference_hnf(gens, ncols: int):
    basis = []
    for g in gens:
        if any(g):
            _ref_insert(basis, list(g))
    basis.sort(key=_ref_pivot)
    d = _ref_index(basis, ncols)
    for i in range(len(basis)):
        j = _ref_pivot(basis[i])
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
                if d:
                    basis[k] = _ref_mod_from(basis[k], k + 1, d)
    return tuple(tuple(r) for r in basis)


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


def test_full_rank_insertion_keeps_entries_below_the_index(monkeypatch):
    # once the rows have full rank, inserted vectors and rewritten rows are
    # reduced modulo the pivot product, so no gcd step sees an entry beyond
    # D^n; seeded with the index D itself, none beyond D
    seen = []
    monkeypatch.setattr(lattices, "_xgcd", lambda a, b: seen.append((a, b)) or _xgcd(a, b))
    rng = random.Random(3)
    n, D = 6, 2 ** 4 * 3 ** 3 * 5
    seed = [[D * (i == j) for j in range(n)] for i in range(n)]
    gens = [[rng.randrange(-10 ** 40, 10 ** 40) for _ in range(n)] for _ in range(20)]
    L = hnf(seed + gens)
    assert seen and all(0 < a <= D and 0 <= b < D ** n for a, b in seen)
    seen.clear()
    assert hnf(gens, n, _index=D) == L
    assert seen and all(0 < a <= D and 0 <= b < D for a, b in seen)
    assert L.basis == _reference_hnf(seed + gens, n)


def _rows(ncols):
    """Generator lists that mix zero, duplicate, negated, large and dependent
    rows with plain small ones."""
    plain = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    large = st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=ncols, max_size=ncols)
    return st.lists(st.tuples(st.sampled_from(["new", "zero", "dup", "neg", "sum"]),
                              st.one_of(plain, large), st.integers(0, 20), st.integers(-3, 3)),
                    max_size=12).map(lambda picks: _build_rows(ncols, picks))


def _build_rows(ncols, picks):
    rows = []
    for kind, vec, i, c in picks:
        if kind == "zero" or (kind in ("dup", "neg", "sum") and not rows):
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(rows[i % len(rows)]))
        elif kind == "neg":
            rows.append([-v for v in rows[i % len(rows)]])
        elif kind == "sum":  # a combination of two earlier rows: rank stays put
            u, w = rows[i % len(rows)], rows[(i * 7 + 1) % len(rows)]
            rows.append([a + c * b for a, b in zip(u, w)])
        else:
            rows.append(list(vec))
    return rows


_gen_lists = st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _rows(n)))


@settings(max_examples=400, deadline=None)
@given(_gen_lists)
def test_kernel_matches_reference_kernel(case):
    n, gens = case
    assert hnf(gens, n).basis == _reference_hnf(gens, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(st.integers(-30, 30), min_size=n,
                                                      max_size=n), min_size=n, max_size=n + 6))),
       st.integers(1, 60))
def test_kernel_matches_reference_in_the_full_rank_phase(case, scale):
    # a scaled identity first: every later row is inserted in the modular
    # phase, whose modulus shrinks as the pivots do
    n, gens = case
    seed = [[scale * (i == j) for j in range(n)] for i in range(n)]
    assert hnf(seed + gens, n).basis == _reference_hnf(seed + gens, n)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["C1", "C2", "C4", "C6", "C8", "C2xC4", "C3xC3"]), st.data())
def test_kernel_matches_reference_on_group_translates(name, data):
    # what fit_matrix and the classical oracle feed it over Z[G]: all |G|
    # translates of each minor's coefficient vector
    G = group_from_catalog(name)
    vecs = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=G.order,
                                       max_size=G.order), min_size=1, max_size=3))
    rows = [[v[G.mul(G.inv(g), h)] for h in range(G.order)] for v in vecs for g in range(G.order)]
    assert hnf(rows, G.order).basis == _reference_hnf(rows, G.order)


@settings(max_examples=300, deadline=None)
@given(_gen_lists, st.integers(1, 10 ** 6))
def test_kernel_modulo_a_known_index_matches_reference_with_its_rows(case, D):
    # seeded with D the kernel spans the generators plus D Z^n, which the
    # reference reaches with explicit D * I rows
    n, gens = case
    seed = [[D * (i == j) for j in range(n)] for i in range(n)]
    assert hnf(gens, n, _index=D).basis == _reference_hnf(seed + gens, n)


def test_kernel_modulo_the_index_of_a_full_rank_span():
    # where D is the index of the span itself, as in annihilation_check, the
    # seeded kernel returns the span
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(10):
            gens = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n + 2)]
            L = hnf(gens, n)
            if L.rank < n:
                continue
            D = math.prod(L.basis[i][i] for i in range(n))
            assert hnf(gens, n, _index=D) == L


def test_kernel_does_not_modify_its_generators():
    gens = [[4, 6], [2, 3], [0, 5]]
    kept = [list(g) for g in gens]
    _hermite(gens, 2)
    _hermite(gens, 2, 7)
    assert gens == kept
