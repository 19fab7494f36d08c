"""Group catalog and irreducible-representation data, checked exactly."""

import math

import pytest

from grax import reps as reps_module
from grax.algebra import GroupAlgebraElement
from grax.cyclotomic import CycloNum
from grax.groups import (_cyclic_table, _finish, _perm_elements, _perm_table, _product_table,
                         group_from_catalog, perm_elements_of, perm_sign)
from grax.reps import (central_idempotent, contragredient, contragredient_permutation,
                       galois_permutation, irreps)

from field_view import field_matrices

ZERO = CycloNum.from_rational(0)
ONE = CycloNum.from_rational(1)

CATALOG = ["C1", "C2", "C6", "C8", "C2xC3", "D4", "D5", "S3", "S4", "A4", "Q8"]


def test_c6_basic():
    G = group_from_catalog("C6")
    assert G.order == 6 and G.is_abelian() and G.exponent == 6


def test_s3_basic():
    G = group_from_catalog("S3")
    assert G.order == 6 and not G.is_abelian() and G.exponent == 6


def test_q8_basic():
    G = group_from_catalog("Q8")
    assert G.order == 8 and G.exponent == 4
    assert sum(1 for g in range(8) if G.element_order(g) == 4) == 6


def test_groups_hash_on_their_label_and_compare_on_their_table():
    a, b = (_finish("S4", "S", (4,), _perm_table(_perm_elements(4))) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    # C4's label on the table of C2xC2
    fake = _finish("C4", "C", (4,), _product_table(_cyclic_table(2), _cyclic_table(2)))
    assert hash(fake) == hash(group_from_catalog("C4"))
    assert fake != group_from_catalog("C4")


@pytest.mark.parametrize("name", ["C12", "C3xC4"])
def test_rational_characters_sit_at_conductor_one(name):
    # the trivial and the order-2 character; the others keep conductor 12
    conductors = [(all(v.is_rational() for v in r.character), r.conductor)
                  for r in irreps(group_from_catalog(name))]
    assert sorted(conductors) == [(False, 12)] * 10 + [(True, 1)] * 2


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        group_from_catalog("E8")
    with pytest.raises(ValueError):
        group_from_catalog("D2")


@pytest.mark.parametrize("spelling,name", [("s3", "S3"), (" S3", "S3"), ("C06", "C6"),
                                           ("c2xc3", "C2xC3")])
def test_every_spelling_reads_one_group(spelling, name):
    G = group_from_catalog(spelling)
    assert G is group_from_catalog(name) and G.name == name
    # one object, so elements built from either spelling add
    one = GroupAlgebraElement.one(G) + GroupAlgebraElement.one(group_from_catalog(name))
    assert one == GroupAlgebraElement.basis(G, 0, 2)


def test_unknown_group_keeps_its_spelling_in_the_message():
    with pytest.raises(ValueError, match="unknown catalog group 'C'"):
        group_from_catalog("C")
    with pytest.raises(ValueError, match="unknown catalog group ' e8 '"):
        group_from_catalog(" e8 ")


def test_c2_characters():
    rs = irreps(group_from_catalog("C2"))
    chars = sorted(tuple(v.as_rational() for v in r.character) for r in rs)
    assert chars == [(1, -1), (1, 1)]


def test_degree_patterns():
    assert [r.degree for r in irreps(group_from_catalog("S3"))] == [1, 1, 2]
    assert [r.degree for r in irreps(group_from_catalog("Q8"))] == [1, 1, 1, 1, 2]
    assert [r.degree for r in irreps(group_from_catalog("S4"))] == [1, 1, 2, 3, 3]
    assert [r.degree for r in irreps(group_from_catalog("A4"))] == [1, 1, 1, 3]


@pytest.mark.parametrize("name", CATALOG)
def test_homomorphism_on_all_pairs(name):
    # construction checks the generators only; every pair and every trace,
    # on the test-side CycloNum view of the integer images
    G = group_from_catalog(name)
    for rep in irreps(G):
        c, mats = rep.degree, field_matrices(rep)
        for a in range(G.order):
            assert sum((mats[a][i][i] for i in range(c)), ZERO) == rep.character[a]
            for b in range(G.order):
                m = mats[G.mul(a, b)]
                prod = [[sum((mats[a][i][t] * mats[b][t][j] for t in range(c)), ZERO)
                         for j in range(c)] for i in range(c)]
                assert all(prod[i][j] == m[i][j] for i in range(c) for j in range(c))


def test_model_corrupted_outside_the_generators_is_refused():
    # a label that is neither a generator nor a product of two, so only
    # the check at a = g s^-1 can reach it
    G = group_from_catalog("S4")
    gens = reps_module._generators(G)
    near = {G.mul(a, s) for a in [0] + gens for s in gens}
    g = next(g for g in range(1, G.order) if g not in near)
    mats = [reps_module._perm_matrix_deleted(p) for p in perm_elements_of(G)]
    reps_module._make_rep(G, mats)
    mats[g] = tuple(tuple(-e for e in row) for row in mats[g])
    with pytest.raises(AssertionError, match="homomorphism"):
        reps_module._make_rep(G, mats)


def test_model_without_the_identity_is_refused():
    # a constant projection P satisfies P P = P at every pair
    G = group_from_catalog("S3")
    with pytest.raises(AssertionError, match="identity"):
        reps_module._make_rep(G, [((ONE, ZERO), (ZERO, ZERO))] * G.order)


def test_reducible_model_is_refused():
    # diag(1, sign): degrees 1, 1, 2 still sum to |G| in squares, and the
    # characters are distinct, but <chi, chi> = 2|G|
    G = group_from_catalog("S3")
    triv, sign, _ = irreps(G)
    red = reps_module._make_rep(G, [((ONE, ZERO), (ZERO, CycloNum.from_rational(perm_sign(p))))
                                    for p in perm_elements_of(G)])
    with pytest.raises(AssertionError, match="not irreducible"):
        reps_module._check_complete(G, [triv, sign, red])


def test_repeated_or_missing_character_is_refused():
    G = group_from_catalog("S3")
    triv, sign, std = irreps(G)
    # 1 + 1 + 4 = |G|, each character irreducible: only distinctness fails
    with pytest.raises(AssertionError, match="repeats"):
        reps_module._check_complete(G, [triv, triv, std])
    with pytest.raises(AssertionError, match="squared degrees"):
        reps_module._check_complete(G, [triv, sign])
    reps_module._check_complete(G, [triv, sign, std])


@pytest.mark.parametrize("name", CATALOG)
def test_character_orthogonality_and_dimension(name):
    G = group_from_catalog(name)
    rs = irreps(G)
    assert sum(r.degree ** 2 for r in rs) == G.order
    for i, r in enumerate(rs):
        for j, s in enumerate(rs):
            acc = CycloNum.from_rational(0)
            for g in range(G.order):
                acc = acc + r.character[g] * s.character[G.inv(g)]
            assert acc == (G.order if i == j else 0)


def test_column_orthogonality():
    G = group_from_catalog("S3")
    rs = irreps(G)
    for g in range(G.order):
        for h in range(G.order):
            acc = CycloNum.from_rational(0)
            for r in rs:
                acc = acc + r.character[g] * r.character[G.inv(h)]
            same_class = G.class_of[g] == G.class_of[h]
            expected = G.order // len(G.conjugacy_classes[G.class_of[g]]) if same_class else 0
            assert acc == expected


def test_trivial_idempotent_c2():
    from fractions import Fraction
    G = group_from_catalog("C2")
    e = central_idempotent(G, 0)
    assert [c.as_rational() for c in e.coeffs] == [Fraction(1, 2), Fraction(1, 2)]


def test_idempotents_orthogonal_s3():
    G = group_from_catalog("S3")
    es = [central_idempotent(G, i) for i in range(3)]
    for i, e in enumerate(es):
        assert (e * e - e).is_zero()
        for j, f in enumerate(es):
            if i != j:
                assert (e * f).is_zero()


def test_idempotents_sum_to_one_q8():
    G = group_from_catalog("Q8")
    total = GroupAlgebraElement.zero(G)
    for i in range(5):
        total = total + central_idempotent(G, i)
    assert (total - GroupAlgebraElement.one(G)).is_zero()


@pytest.mark.parametrize("name", ["C6", "S3", "Q8"])
def test_idempotents_conjugation_invariant(name):
    # only a rational character has its idempotent in Q[G]
    G = group_from_catalog(name)
    for i, rep in enumerate(irreps(G)):
        if not all(v.is_rational() for v in rep.character):
            continue
        e = central_idempotent(G, i)
        for g in range(G.order):
            conj = GroupAlgebraElement.basis(G, g) * e * GroupAlgebraElement.basis(G, G.inv(g))
            assert (conj - e).is_zero()


def test_contragredient_s3_degree2_self():
    G = group_from_catalog("S3")
    rep = irreps(G)[2]
    assert contragredient(rep).character == rep.character


def test_contragredient_c3_swaps_nontrivial():
    G = group_from_catalog("C3")
    perm = contragredient_permutation(G)
    assert perm[0] == 0 and sorted(perm[1:]) == [1, 2] and perm[1] != 1


@pytest.mark.parametrize("name", CATALOG)
def test_contragredient_preserves_degree(name):
    G = group_from_catalog(name)
    for rep in irreps(G):
        assert contragredient(rep).degree == rep.degree


@pytest.mark.parametrize("name", CATALOG)
def test_contragredient_is_the_transpose_at_the_inverse(name):
    G = group_from_catalog(name)
    for rep in irreps(G):
        c, dual = rep.degree, contragredient(rep)
        assert dual.conductor == rep.conductor
        mats, dual_mats = field_matrices(rep), field_matrices(dual)
        for g in range(G.order):
            m = mats[G.inv(g)]
            assert dual_mats[g] == [[m[j][i] for j in range(c)] for i in range(c)]
            assert dual.character[g] == rep.character[G.inv(g)]


def _galois_permutation_reference(G, a):
    """Every character lifted to the exponent e, sigma_a applied to each
    value, and the result matched among the lifted characters on all labels."""
    lifted = [tuple(v.lift(G.exponent) for v in r.character) for r in irreps(G)]
    return tuple(lifted.index(tuple(v.galois(a) for v in ch)) for ch in lifted)


@pytest.mark.parametrize("name", CATALOG + ["C12", "C3xC4", "D6"])
def test_galois_permutation_matches_lift_and_galois(name):
    G = group_from_catalog(name)
    e = G.exponent
    for a in range(1, max(e, 2)):
        if math.gcd(a, e) == 1:
            assert galois_permutation(G, a) == _galois_permutation_reference(G, a)
    if e > 1:
        with pytest.raises(ValueError, match="not coprime"):
            galois_permutation(G, e if e % 2 else 2)


@pytest.mark.parametrize("name", CATALOG + ["C12", "C3xC4", "D6"])
def test_contragredient_permutation_matches_the_inverse_character(name):
    G = group_from_catalog(name)
    rs, perm = irreps(G), contragredient_permutation(G)
    assert sorted(perm) == list(range(len(rs)))
    for r, j in zip(rs, perm):
        assert all(rs[j].character[g] == r.character[G.inv(g)] for g in range(G.order))
