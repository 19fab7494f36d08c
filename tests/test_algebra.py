"""Wedderburn isomorphism, reduced norms, generalized adjoints, involution."""

import dataclasses
import math
import operator
import random
from fractions import Fraction

import pytest

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          _galois_trivial, adjoint_star, hash_involution, nrd, nrd_element,
                          reduced_rank, wedderburn, wedderburn_inverse)
from grax.cyclotomic import CycloNum
from grax.groups import group_from_catalog
from grax.linalg import mat_mul
from grax.reps import central_idempotent, galois_permutation, irreps


def rand_gae(rng, G, h=3):
    return GroupAlgebraElement.from_coeffs(
        G, [rng.randrange(-h, h + 1) for _ in range(G.order)])


def rand_gam(rng, G, r, c, h=3):
    return GroupAlgebraMatrix.from_entries(
        G, [[rand_gae(rng, G, h) for _ in range(c)] for _ in range(r)])


def gam_eq(A, B):
    return all((a - b).is_zero() for ra, rb in zip(A.entries, B.entries)
               for a, b in zip(ra, rb))


def test_wedderburn_identity_blocks():
    G = group_from_catalog("S3")
    blocks = wedderburn(GroupAlgebraElement.one(G))
    for rep, b in zip(irreps(G), blocks):
        for i in range(rep.degree):
            for j in range(rep.degree):
                assert b[i][j] == (1 if i == j else 0)


def test_wedderburn_c2_generator():
    G = group_from_catalog("C2")
    blocks = wedderburn(GroupAlgebraElement.basis(G, 1))
    assert blocks[0][0][0] == 1 and blocks[1][0][0] == -1


def test_wedderburn_homomorphism_random_s3():
    rng = random.Random(0)
    G = group_from_catalog("S3")
    for _ in range(20):
        x, y = rand_gae(rng, G), rand_gae(rng, G)
        lhs = wedderburn(x * y)
        for bxy, bx, by in zip(lhs, wedderburn(x), wedderburn(y)):
            prod = mat_mul(bx, by)
            assert all((bxy[i][j] - prod[i][j]).is_zero()
                       for i in range(len(bxy)) for j in range(len(bxy)))


def test_wedderburn_inverse_roundtrip_q8():
    rng = random.Random(1)
    G = group_from_catalog("Q8")
    for _ in range(15):
        x = rand_gae(rng, G)
        back = wedderburn_inverse(G, wedderburn(x))
        assert (back - x).is_zero()


def test_wedderburn_inverse_idempotent_blocks():
    G = group_from_catalog("C2")
    blocks = [[[CycloNum.from_rational(1)]], [[CycloNum.from_rational(0)]]]
    e = wedderburn_inverse(G, blocks)
    assert (e - central_idempotent(G, 0)).is_zero()

    GS = group_from_catalog("S3")
    blocks = [[[CycloNum.from_rational(0)]], [[CycloNum.from_rational(0)]],
              [[CycloNum.from_rational(1), CycloNum.from_rational(0)],
               [CycloNum.from_rational(0), CycloNum.from_rational(1)]]]
    e2 = wedderburn_inverse(GS, blocks)
    assert (e2 - central_idempotent(GS, 2)).is_zero()


def test_wedderburn_inverse_shape_mismatch():
    G = group_from_catalog("C2")
    with pytest.raises(ValueError):
        wedderburn_inverse(G, [[[CycloNum.from_rational(1)]]])


def test_nrd_sum_of_elements_s3():
    G = group_from_catalog("S3")
    x = GroupAlgebraElement.from_coeffs(G, [1] * 6)
    n = nrd_element(x)
    assert [v.is_rational() and v.as_rational() for v in n.values] == [6, 0, 0]


def test_nrd_abelian_is_characterwise_determinant():
    rng = random.Random(2)
    G = group_from_catalog("C4")
    reps = irreps(G)
    for _ in range(10):
        M = rand_gam(rng, G, 2, 2)
        det = (M.entries[0][0] * M.entries[1][1] - M.entries[0][1] * M.entries[1][0])
        expected = []
        for rep in reps:
            acc = CycloNum.from_rational(0)
            for g, c in enumerate(det.coeffs):
                acc = acc + c * rep.character[g]
            expected.append(acc)
        assert list(nrd(M).values) == expected


def test_nrd_multiplicative_d4():
    rng = random.Random(3)
    G = group_from_catalog("D4")
    assert nrd(GroupAlgebraMatrix.identity(G, 2)) == CentralElement.one(G)
    for _ in range(25):
        A, B = rand_gam(rng, G, 2, 2), rand_gam(rng, G, 2, 2)
        assert nrd(A * B) == nrd(A) * nrd(B)


def test_central_arithmetic_refuses_another_group():
    # S3 and C3 both have three irreducibles, so their values would pair up
    S3, C3 = group_from_catalog("S3"), group_from_catalog("C3")
    x, y = CentralElement.one(S3), CentralElement.one(C3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="group mismatch"):
            op(x, y)
    assert x + x == CentralElement.from_rational(S3, 2)


def test_nrd_requires_square():
    G = group_from_catalog("C2")
    with pytest.raises(ValueError):
        nrd(GroupAlgebraMatrix.from_int_grid(G, [[1, 2]]))


def test_adjoint_identity_matrix():
    G = group_from_catalog("S3")
    I = GroupAlgebraMatrix.identity(G, 2)
    assert gam_eq(adjoint_star(I), I)


def test_adjoint_one_by_one():
    rng = random.Random(4)
    G = group_from_catalog("Q8")
    for _ in range(10):
        a = rand_gae(rng, G)
        M = GroupAlgebraMatrix.from_entries(G, [[a]])
        star = adjoint_star(M)
        prod = M * star
        assert (prod.entries[0][0] - nrd(M).to_group_algebra()).is_zero()


def test_adjoint_singular_component_c2():
    G = group_from_catalog("C2")
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    n = nrd(M)
    assert [v.as_rational() for v in n.values] == [2, 0]
    star = adjoint_star(M)
    # sign component of M* must vanish; product is nrd * identity
    from grax.algebra import wedderburn_block
    sign_block = wedderburn_block(star, 1)
    assert all(v.is_zero() for row in sign_block for v in row)
    assert ((M * star).entries[0][0] - n.to_group_algebra()).is_zero()


def test_adjoint_scaled_integral():
    rng = random.Random(5)
    for name in ("S3", "Q8"):
        G = group_from_catalog(name)
        for _ in range(5):
            M = rand_gam(rng, G, 2, 2, 2)
            star = adjoint_star(M)
            scaled = GroupAlgebraMatrix.from_entries(
                G, [[e * G.order for e in row] for row in star.entries])
            assert scaled.is_integral()


def test_hash_fixes_constant_tuples():
    G = group_from_catalog("Q8")
    x = CentralElement.from_rational(G, 7)
    assert hash_involution(x) == x


def test_hash_is_involution():
    rng = random.Random(6)
    G = group_from_catalog("S3")
    for _ in range(10):
        x = nrd(rand_gam(rng, G, 2, 2))
        assert hash_involution(hash_involution(x)) == x


def test_transpose_identity_s3():
    # transpose-plus-inversion intertwines with # on reduced norms; the
    # entrywise inversion alone is an anti-map and lands in the opposite
    # algebra, so only the composite identity holds verbatim
    rng = random.Random(7)
    G = group_from_catalog("S3")
    for _ in range(30):
        M = rand_gam(rng, G, 2, 2)
        assert nrd(M.transpose().involute_entries()) == hash_involution(nrd(M))


def test_reduced_rank_group_algebra():
    G = group_from_catalog("S3")
    assert reduced_rank(G, free_rank=1) == (1, 1, 2)
    assert reduced_rank(G, free_rank=3) == (3, 3, 6)
    assert reduced_rank(G, cut=2) == (0, 0, 4)
    with pytest.raises(ValueError):
        reduced_rank(G)
    with pytest.raises(ValueError):
        reduced_rank(G, free_rank=1, cut=0)


def test_central_element_coords_roundtrip():
    rng = random.Random(8)
    G = group_from_catalog("Q8")
    for _ in range(10):
        coords = [Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 4]))
                  for _ in G.conjugacy_classes]
        x = CentralElement.from_coords(G, coords)
        assert x.coords() == tuple(coords)


def test_irrational_value_refused_where_galois_acts_trivially():
    # on Q8 every sigma_a fixes every character, so a consistent tuple is
    # rational; zeta_4 at a degree-1 character gets the full check's message
    G = group_from_catalog("Q8")
    assert _galois_trivial(G)
    values = (CycloNum.zeta(4),) + (CycloNum.from_rational(1),) * 4
    with pytest.raises(AssertionError, match="^Galois consistency fails for sigma_3 at character 0$"):
        CentralElement(G, values)


@pytest.mark.parametrize("name", ["A4", "C12", "D5"])
def test_rational_tuple_off_a_galois_orbit_refused(name):
    # here some sigma_a moves a character, so rational values are not enough
    G = group_from_catalog(name)
    assert not _galois_trivial(G)
    perm = next(p for p in (galois_permutation(G, a) for a in range(2, G.exponent)
                            if math.gcd(a, G.exponent) == 1)
                if p != tuple(range(len(p))))
    moved = next(i for i, j in enumerate(perm) if i != j)
    values = [CycloNum.from_rational(1)] * len(perm)
    values[moved] = CycloNum.from_rational(2)
    with pytest.raises(AssertionError, match="Galois consistency fails"):
        CentralElement(G, tuple(values))


def test_class_table_refuses_a_non_integral_character(monkeypatch):
    # every catalog character is an algebraic integer; a halved one is not
    from grax import algebra
    G = group_from_catalog("C2")
    trivial, sign = irreps(G)
    bad = dataclasses.replace(sign, character=tuple(v * Fraction(1, 2) for v in sign.character))
    monkeypatch.setattr(algebra, "irreps", lambda H: (trivial, bad))
    with pytest.raises(AssertionError, match="not an algebraic integer"):
        algebra._class_table.__wrapped__(G)


def test_galois_consistency_enforced():
    G = group_from_catalog("C4")
    good = nrd_element(GroupAlgebraElement.basis(G, 1))
    values = list(good.values)
    # duplicating one of a conjugate character pair breaks consistency
    perturbed = [values[0], values[1], values[2], values[1]]
    assert values[1] != values[3]
    with pytest.raises(AssertionError):
        CentralElement(G, tuple(perturbed))
