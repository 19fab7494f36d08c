"""GroupAlgebraElement on integers against the group ring as one CycloNum per
label (field_view): sums, differences, products, the involution, scalar
products, zero and integrality tests and equality, over catalog groups up
to order 24 with fractional coefficients.  Also the one rationality
boundary: the constructors refuse a coefficient outside Q, and so every
path that builds an element from cyclotomic input."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax import serde
from grax.algebra import GroupAlgebraElement, GroupAlgebraMatrix, matrix_from_blocks
from grax.cyclotomic import CycloNum
from grax.groups import group_from_catalog
from grax.reps import central_idempotent, irreps

from field_view import (field_add, field_coeffs, field_involute, field_is_integral,
                        field_is_zero, field_mul, field_scale, field_sub)

GROUPS = ["C1", "C2", "C2xC3", "S3", "Q8", "D4", "C4xC2", "A4", "D6", "S4", "C24"]

_COEFF = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                   st.fractions(min_value=-3, max_value=3, max_denominator=6))
_SCALAR = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6).map(
                        CycloNum.from_rational),
                    # rational, but held at conductor 4
                    st.integers(-2, 2).map(lambda k: k * CycloNum.zeta(4) * CycloNum.zeta(4)))


@st.composite
def _elements(draw, count):
    G = group_from_catalog(draw(st.sampled_from(GROUPS)))
    return G, [draw(st.lists(_COEFF, min_size=G.order, max_size=G.order)) for _ in range(count)]


def _same(x: GroupAlgebraElement, want) -> bool:
    return list(x.coeffs) == want


@settings(max_examples=60, deadline=None)
@given(_elements(2), _SCALAR)
def test_arithmetic_matches_the_cyclonum_reference(case, c):
    G, (a, b) = case
    x, y = GroupAlgebraElement.from_coeffs(G, a), GroupAlgebraElement.from_coeffs(G, b)
    fa, fb = field_coeffs(a), field_coeffs(b)
    assert _same(x, fa)
    assert _same(x + y, field_add(fa, fb))
    assert _same(x - y, field_sub(fa, fb))
    assert _same(-x, field_sub(field_coeffs([0] * G.order), fa))
    assert _same(x * y, field_mul(G, fa, fb))
    assert _same(x.involute(), field_involute(G, fa))
    assert _same(x * c, field_scale(fa, c)) and _same(c * x, field_scale(fa, c))
    assert x.is_zero() == field_is_zero(fa)
    assert x.is_integral() == field_is_integral(fa)
    assert (x == y) == (fa == fb)
    # canonical form: equal elements are equal tuples, however built
    assert (x + y) - y == x
    assert x * y - x * y == GroupAlgebraElement.zero(G)
    assert x * 2 * Fraction(1, 2) == x
    assert GroupAlgebraMatrix.from_entries(G, [[x, y]]) * c == \
        GroupAlgebraMatrix.from_entries(G, [[x * c, y * c]])


def test_two_quarters_built_two_ways_compare_equal():
    G = group_from_catalog("S3")
    half = GroupAlgebraElement.from_coeffs(G, [Fraction(1, 2)] + [0] * 5)
    assert GroupAlgebraElement.from_coeffs(G, [Fraction(2, 4)] + [0] * 5) == half
    assert GroupAlgebraElement.basis(G, 0, 2) * Fraction(1, 4) == half
    assert GroupAlgebraElement._reduced(G, [2, 0, 0, 0, 0, 0], 4) == half
    assert GroupAlgebraElement._reduced(G, [-2, 0, 0, 0, 0, 0], -4) == half
    assert hash(GroupAlgebraElement._reduced(G, [2, 0, 0, 0, 0, 0], 4)) == hash(half)
    assert (half.num, half.den) == ((1, 0, 0, 0, 0, 0), 2)
    zero = half - half
    assert (zero.num, zero.den) == ((0,) * 6, 1)


_ZETA4 = CycloNum.zeta(4)


@pytest.mark.parametrize("build", [
    lambda G: GroupAlgebraElement.from_coeffs(G, [_ZETA4] + [0] * (G.order - 1)),
    lambda G: GroupAlgebraElement.basis(G, 1, _ZETA4),
    lambda G: GroupAlgebraElement.one(G) * _ZETA4,
    lambda G: _ZETA4 * GroupAlgebraElement.one(G),
    lambda G: GroupAlgebraMatrix.identity(G, 2) * _ZETA4,
    lambda G: serde.json_to_gae(G, {"0": {"n": 4, "coeffs": ["0", "1"]}}),
], ids=["from_coeffs", "basis", "element-scalar", "element-rscalar", "matrix-scalar",
        "json_to_gae"])
def test_a_zeta4_coefficient_is_refused_at_construction(build):
    with pytest.raises(ValueError, match="rational coefficients"):
        build(group_from_catalog("C4"))


def test_matrix_from_blocks_refuses_an_inversion_outside_q_g():
    # the block tuple of the idempotent of a character of conductor 4: its
    # coefficients are (1/4) chi(g^-1), outside Q
    G = group_from_catalog("C4")
    chi = next(i for i, r in enumerate(irreps(G)) if r.conductor == 4)
    blocks = [[[CycloNum.from_rational(int(i == chi))]] for i in range(len(irreps(G)))]
    with pytest.raises(ValueError, match="rational coefficients"):
        matrix_from_blocks(G, 1, 1, blocks)


def test_matrix_from_blocks_refuses_a_block_outside_the_splitting_field():
    G = group_from_catalog("C2")
    blocks = [[[CycloNum.zeta(3)]], [[CycloNum.from_rational(0)]]]
    with pytest.raises(ValueError, match="outside"):
        matrix_from_blocks(G, 1, 1, blocks)


def test_central_idempotent_refuses_an_irrational_character():
    G = group_from_catalog("C6")
    reps = irreps(G)
    rational = [all(v.is_rational() for v in r.character) for r in reps]
    assert rational.count(True) == 2
    with pytest.raises(ValueError, match="rational coefficients"):
        central_idempotent(G, rational.index(False))
    total = sum((central_idempotent(G, i) for i in range(len(reps)) if rational[i]),
                GroupAlgebraElement.zero(G))
    # the two rational idempotents are orthogonal, so their sum is idempotent
    assert total * total == total


@pytest.mark.parametrize("op", ["add", "sub"])
def test_matrix_sum_refuses_a_shape_or_group_mismatch(op):
    S3, C6 = group_from_catalog("S3"), group_from_catalog("C6")
    M = GroupAlgebraMatrix.from_int_grid(S3, [[1, 2], [3, 4]])
    for other in (GroupAlgebraMatrix.from_int_grid(S3, [[5]]),
                  GroupAlgebraMatrix.from_int_grid(S3, [[1, 2]]),
                  GroupAlgebraMatrix.from_int_grid(C6, [[1, 2], [3, 4]])):
        with pytest.raises(ValueError, match="shape or group mismatch"):
            getattr(M, f"__{op}__")(other)
    assert getattr(M, f"__{op}__")(5) is NotImplemented
    with pytest.raises(TypeError):
        M + 5 if op == "add" else M - 5
