"""Graded determinant calculus: signs, exactness data, assembled automorphisms."""

import random
from fractions import Fraction

import pytest

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          gam_inverse, nrd)
from grax.detfun import (det_free, inverse_object, ses_iso,
                         ses_retraction, ses_swap_sign, swap_sign, tensor,
                         two_term_nrd, unit_object)
from grax.exterior import wedge_elements
from grax.groups import group_from_catalog


def rand_gam(rng, G, r, c, h=2):
    return GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(
                G, [rng.randrange(-h, h + 1) for _ in range(G.order)])
             for _ in range(c)] for _ in range(r)])


def rand_invertible(rng, G, n, h=2):
    while True:
        M = rand_gam(rng, G, n, n, h)
        if not nrd(M).has_zero_component():
            return M


def test_det_free_rank_one_grading():
    G = group_from_catalog("S3")
    X = det_free(GroupAlgebraMatrix.identity(G, 1))
    assert X.grading == (1, 1, 2)
    assert [s.as_rational() for s in X.scalars] == [1, 1, 1]


def test_det_free_rejects_singular_basis():
    G = group_from_catalog("C2")
    z = GroupAlgebraElement.from_coeffs(G, [1, 1])
    with pytest.raises(ValueError):
        det_free(GroupAlgebraMatrix.from_entries(G, [[z]]))


def test_det_free_basis_change_covariance():
    rng = random.Random(0)
    for name in ("C4", "S3"):
        G = group_from_catalog(name)
        B = rand_invertible(rng, G, 2)
        C = rand_invertible(rng, G, 2)
        assert det_free(C * B).generator_central() == \
            nrd(C) * det_free(B).generator_central()


def test_unit_is_neutral_and_inverse_evaluates():
    rng = random.Random(1)
    G = group_from_catalog("D4")
    X = det_free(rand_invertible(rng, G, 2))
    U = unit_object(G)
    assert tensor(X, U).scalars == X.scalars
    assert tensor(X, U).grading == X.grading
    E = tensor(X, inverse_object(X))
    assert E.scalars == U.scalars and E.grading == U.grading


def test_swap_sign_odd_components():
    G = group_from_catalog("S3")
    X = det_free(GroupAlgebraMatrix.identity(G, 1))
    s = swap_sign(X, X)
    # gradings (1,1,2): odd*odd at the two linear characters, even at deg 2
    assert [v.as_rational() for v in s.values] == [-1, -1, 1]


def test_tensor_grading_adds():
    G = group_from_catalog("S3")
    X = det_free(GroupAlgebraMatrix.identity(G, 1))
    Y = det_free(GroupAlgebraMatrix.identity(G, 2))
    assert tensor(X, Y).grading == tuple(a + b for a, b in zip(X.grading, Y.grading))


def test_det_free_is_the_top_wedge_coordinate():
    # the top reduced exterior power, built independently of nrd
    rng = random.Random(11)
    for name in ("C4", "C12", "S3", "D4", "Q8", "A4"):
        G = group_from_catalog(name)
        for n in (1, 2):
            B = rand_invertible(rng, G, n)
            assert det_free(B).scalars == tuple(comp[0] for comp in wedge_elements(B).comps)


def test_det_free_of_direct_sum_is_tensor():
    rng = random.Random(5)
    for name in ("C4", "S3"):
        G = group_from_catalog(name)
        B1 = rand_invertible(rng, G, 1)
        B2 = rand_invertible(rng, G, 2)
        zero = GroupAlgebraElement.zero(G)
        block = GroupAlgebraMatrix.from_entries(
            G, [[B1.entries[0][0], zero, zero],
                [zero, B2.entries[0][0], B2.entries[0][1]],
                [zero, B2.entries[1][0], B2.entries[1][1]]])
        S = det_free(block)
        T = tensor(det_free(B1), det_free(B2))
        assert S.grading == T.grading
        assert S.scalars == T.scalars


def test_ses_direct_sum_identity_section():
    G = group_from_catalog("S3")
    one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
    theta = GroupAlgebraMatrix.from_entries(G, [[one, zero, zero]])
    phi = GroupAlgebraMatrix.from_entries(G, [[zero, zero], [one, zero], [zero, one]])
    section = GroupAlgebraMatrix.from_entries(
        G, [[zero, one, zero], [zero, zero, one]])
    iso = ses_iso(theta, phi, section)
    assert iso.factor == CentralElement.one(G)


def test_ses_rejects_non_exact():
    G = group_from_catalog("C2")
    one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
    theta = GroupAlgebraMatrix.from_entries(G, [[one, zero]])
    phi = GroupAlgebraMatrix.from_entries(G, [[one], [zero]])  # phi o theta != 0
    section = GroupAlgebraMatrix.from_entries(G, [[one, zero]])
    with pytest.raises(ValueError):
        ses_iso(theta, phi, section)


def _random_split_sequence(rng, G, r1, r3):
    r2 = r1 + r3
    W = rand_invertible(rng, G, r2)
    Winv = gam_inverse(W)
    theta = GroupAlgebraMatrix.from_entries(G, [list(W.entries[j]) for j in range(r1)])
    phi = GroupAlgebraMatrix.from_entries(
        G, [[Winv.entries[t][j] for j in range(r1, r2)] for t in range(r2)])
    section = GroupAlgebraMatrix.from_entries(
        G, [list(W.entries[j]) for j in range(r1, r2)])
    return theta, phi, section


def test_ses_section_independence():
    rng = random.Random(2)
    G = group_from_catalog("D4")
    for _ in range(4):
        theta, phi, section = _random_split_sequence(rng, G, 1, 1)
        other = section + rand_gam(rng, G, 1, 1) * theta
        assert ses_iso(theta, phi, section).factor == \
            ses_iso(theta, phi, other).factor


def test_ses_order_swap_sign():
    rng = random.Random(3)
    for name in ("C4", "S3", "D4"):
        G = group_from_catalog(name)
        for r1, r3 in [(1, 1), (1, 2), (2, 1)]:
            theta, phi, section = _random_split_sequence(rng, G, r1, r3)
            iso = ses_iso(theta, phi, section)
            retr = ses_retraction(theta, section)
            flipped = ses_iso(section, retr, theta)
            assert flipped.factor == ses_swap_sign(iso) * iso.factor


def test_two_term_invertible_is_nrd():
    rng = random.Random(4)
    G = group_from_catalog("S3")
    T = rand_invertible(rng, G, 2)
    assert two_term_nrd(T) == nrd(T)
    # sections are vacuous for invertible theta: any provided data is ignored
    assert two_term_nrd(T, comparison=GroupAlgebraMatrix.identity(G, 2),
                        ker_section=gam_inverse(T),
                        cok_section=gam_inverse(T)) == nrd(T)


def test_two_term_zero_map_identity_comparison():
    G = group_from_catalog("S3")
    zero = GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.zero(G)]])
    ident = GroupAlgebraMatrix.identity(G, 1)
    v = two_term_nrd(zero, comparison=ident, ker_section=zero, cok_section=zero)
    assert v == CentralElement.one(G)


def test_two_term_mixed_kernel():
    # theta = 1 + g over C2: invertible at the trivial character (value 2),
    # zero at the sign character; comparison acts by 3 on the kernel
    G = group_from_catalog("C2")
    T = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    S = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [Fraction(1, 4), Fraction(1, 4)])]])
    C3 = GroupAlgebraMatrix.from_int_grid(G, [[3]])
    v = two_term_nrd(T, comparison=C3, ker_section=S, cok_section=S)
    assert [x.as_rational() for x in v.values] == [2, 3]


def test_two_term_requires_sections_when_singular():
    G = group_from_catalog("C2")
    T = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    with pytest.raises(ValueError):
        two_term_nrd(T)


def test_two_term_rejects_bad_section():
    G = group_from_catalog("C2")
    T = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    bad = GroupAlgebraMatrix.from_int_grid(G, [[1]])  # T * bad * T != T
    ident = GroupAlgebraMatrix.identity(G, 1)
    with pytest.raises(ValueError):
        two_term_nrd(T, comparison=ident, ker_section=bad, cok_section=bad)
