"""Reduced exterior powers: pairing, splitting, kernel elements, membership."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix, gam_inverse,
                          nrd, nrd_op, wedderburn_block)
from grax.cyclotomic import CycloNum
from grax.exterior import (ExteriorElement, HomWedge, epsilon_from_matrix, epsilon_vanishing, pair,
                           rubin_membership, standard_basis_matrix, theta_b,
                           theta_b_bijective, theta_b_section, wedge_elements,
                           wedge_homs, _subsets)
from grax.fitting import Budget, fit_matrix, lattice_from_central, xi_approx
from grax.groups import group_from_catalog
from grax.linalg import mat_det
from grax.reps import irreps


def rand_gae(rng, G, h=2):
    return GroupAlgebraElement.from_coeffs(
        G, [rng.randrange(-h, h + 1) for _ in range(G.order)])


def rand_gam(rng, G, r, c, h=2):
    return GroupAlgebraMatrix.from_entries(
        G, [[rand_gae(rng, G, h) for _ in range(c)] for _ in range(r)])


def test_top_wedge_of_standard_basis_is_one():
    for name in ("C4", "S3", "Q8"):
        G = group_from_catalog(name)
        for k in (1, 2, 3):
            top = wedge_elements(standard_basis_matrix(G, k, range(k)))
            for comp in top.comps:
                assert len(comp) == 1 and comp[0] == 1


def test_wedge_requires_degree_at_most_rank():
    G = group_from_catalog("C2")
    M = standard_basis_matrix(G, 1, [0, 0])
    with pytest.raises(ValueError):
        wedge_elements(M)
    with pytest.raises(ValueError):
        wedge_homs(M)


def test_exterior_element_needs_one_component_per_character():
    # over S3 the first component of wedge_elements(I_2) alone compared equal
    # to the element padded with zeros when the components were zipped
    G = group_from_catalog("S3")
    x = wedge_elements(GroupAlgebraMatrix.identity(G, 2))
    padded = x.comps[:1] + tuple((CycloNum.from_rational(0),) * len(c) for c in x.comps[1:])
    assert ExteriorElement(G, x.rank, x.degree, padded) != x
    with pytest.raises(ValueError) as exc:
        ExteriorElement(G, x.rank, x.degree, x.comps[:1])
    assert str(exc.value) == "expected 3 wedge components, got 1"
    with pytest.raises(ValueError) as exc:
        ExteriorElement(G, x.rank, x.degree, x.comps + x.comps[:1])
    assert str(exc.value) == "expected 3 wedge components, got 4"


def test_abelian_wedge_is_classical():
    # with one-dimensional characters the slices are the character values,
    # so coordinates are the classical 2x2 minors
    rng = random.Random(0)
    G = group_from_catalog("C3")
    W = rand_gam(rng, G, 2, 3)
    xe = wedge_elements(W)
    reps = irreps(G)
    for chi, rep in enumerate(reps):
        vals = [[None] * 3 for _ in range(2)]
        for i in range(2):
            for t in range(3):
                acc = CycloNum.from_rational(0)
                for g, c in enumerate(W.entries[i][t].coeffs):
                    acc = acc + c * rep.character[g]
                vals[i][t] = acc
        minors = [vals[0][a] * vals[1][b] - vals[0][b] * vals[1][a]
                  for a, b in itertools.combinations(range(3), 2)]
        assert list(xe.comps[chi]) == minors


def test_pairing_gram_oracle():
    rng = random.Random(1)
    for name in ("C1", "C6", "S3", "Q8", "A4"):
        G = group_from_catalog(name)
        for _ in range(4):
            k = rng.randrange(1, 4)
            r = rng.randrange(1, k + 1)
            W = rand_gam(rng, G, r, k)
            P = rand_gam(rng, G, r, k)
            gram = [[_dot(W.entries[j], P.entries[i]) for j in range(r)]
                    for i in range(r)]
            assert pair(wedge_homs(P), wedge_elements(W)) == \
                nrd_op(GroupAlgebraMatrix.from_entries(G, gram))


def _dot(w_row, p_row):
    acc = GroupAlgebraElement.zero(w_row[0].group)
    for wt, pt in zip(w_row, p_row):
        acc = acc + wt * pt
    return acc


def test_pairing_degree_zero_hom_is_identity():
    G = group_from_catalog("S3")
    rng = random.Random(2)
    xe = wedge_elements(rand_gam(rng, G, 2, 3))
    empty = HomWedge(G, 3, 0, tuple(() for _ in irreps(G)))
    assert pair(empty, xe) == xe


def test_dual_basis_pairing_normalization():
    for name in ("C4", "S3", "Q8"):
        G = group_from_catalog(name)
        for k in (1, 2, 3):
            b = standard_basis_matrix(G, k, range(k))
            assert pair(wedge_homs(b), wedge_elements(b)) == CentralElement.one(G)


def test_pairing_depends_only_on_lists():
    # permuting the homs and the elements by the same permutation with a
    # sign correction leaves the value fixed
    rng = random.Random(3)
    G = group_from_catalog("S3")
    W = rand_gam(rng, G, 2, 2)
    P = rand_gam(rng, G, 2, 2)
    v1 = pair(wedge_homs(P), wedge_elements(W))
    P_swapped = GroupAlgebraMatrix.from_entries(
        G, [list(P.entries[1]), list(P.entries[0])])
    W_swapped = GroupAlgebraMatrix.from_entries(
        G, [list(W.entries[1]), list(W.entries[0])])
    v2 = pair(wedge_homs(P_swapped), wedge_elements(W_swapped))
    # each swap contributes (-1)^(deg^2) per character; the two cancel
    assert v2 == v1


def test_endomorphism_scaling():
    rng = random.Random(4)
    for name in ("C6", "S3"):
        G = group_from_catalog(name)
        for k in (1, 2, 3):
            phi = rand_gam(rng, G, k, k)
            assert wedge_elements(phi) == \
                wedge_elements(standard_basis_matrix(G, k, range(k))).scale(nrd(phi))


def test_theta_roundtrip_and_dimension_witness():
    G = group_from_catalog("S3")
    xi = xi_approx(G, Budget(max_matrix_size=1))
    els = xi.elements()
    rng = random.Random(5)
    for d, r in [(2, 1), (3, 2), (3, 3)]:
        coeffs = {s: els[rng.randrange(len(els))]
                  for s in itertools.combinations(range(d), r)}
        x = theta_b_section(G, d, r, coeffs)
        back = theta_b(x)
        for s, c in coeffs.items():
            assert back[s] == c
    # dimension witness: d=2, r=1 splits 6-dimensionally per degree-2
    # character against a 2-dimensional coordinate side
    assert len(_subsets(4, 2)) == 6 and len(_subsets(2, 1)) == 2
    assert not theta_b_bijective(G, 2, 1)
    assert theta_b_bijective(G, 2, 2)
    assert theta_b_bijective(group_from_catalog("C6"), 2, 1)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["A4", "C12", "Q8", "S3"]), k=st.integers(1, 3),
       data=st.data())
def test_wedge_coordinates_are_block_minors(name, k, data):
    # the field oracle: coordinate s of the wedge of the rows of M at chi is
    # the maximal minor of the CycloNum block on the columns s
    G = group_from_catalog(name)
    r = data.draw(st.integers(0, k))
    entry = st.builds(lambda num, den: Fraction(num, den), st.integers(-2, 2), st.integers(1, 3))
    grid = data.draw(st.lists(st.lists(st.lists(entry, min_size=G.order, max_size=G.order),
                                       min_size=k, max_size=k), min_size=r, max_size=r))
    M = GroupAlgebraMatrix(G, r, k, tuple(tuple(GroupAlgebraElement.from_coeffs(G, c)
                                                for c in row) for row in grid))
    xe = wedge_elements(M)
    for chi, rep in enumerate(irreps(G)):
        blk = wedderburn_block(M, chi)
        subsets = _subsets(k * rep.degree, r * rep.degree)
        assert xe.comps[chi] == tuple(mat_det([[row[j] for j in s] for row in blk])
                                      for s in subsets)


def _invertible(rng, G, k):
    while True:
        B = rand_gam(rng, G, k, k, 1)
        inverse = gam_inverse(B)
        if inverse is not None:
            return B, inverse


@pytest.mark.parametrize("name", ["C4", "S3", "Q8"])
def test_theta_roundtrip_at_every_degree_in_a_free_basis(name):
    G = group_from_catalog(name)
    els = xi_approx(G, Budget(max_matrix_size=1)).elements()
    rng = random.Random(11)
    k = 2
    bases = [(None, None), _invertible(rng, G, k)]
    for basis, inverse in bases:
        for r in range(k + 1):
            coeffs = {s: els[rng.randrange(len(els))]
                      for s in itertools.combinations(range(k), r)}
            x = theta_b_section(G, k, r, coeffs, basis)
            assert x.degree == r and theta_b(x, inverse) == coeffs


def test_rubin_degree_zero_is_the_order():
    # the degree-0 wedge is 1, and 1 lies in every order: both paths pair it
    # against the empty hom wedge, a 0 x k matrix
    for name in ("C4", "S3"):
        G = group_from_catalog(name)
        xi = xi_approx(G, Budget(max_matrix_size=1))
        one = wedge_elements(standard_basis_matrix(G, 2, []))
        assert rubin_membership(one, standard_basis_matrix(G, 2, range(2)), xi).kind == "exact-yes"
    G = group_from_catalog("C4")
    gens = GroupAlgebraMatrix.from_entries(G, [
        [GroupAlgebraElement.from_coeffs(G, c) for c in row]
        for row in ([[2, 0, 0, 0], [0] * 4], [[0] * 4, [2, 0, 0, 0]],
                    [[1, 1, 0, 0], [1, 0, 0, 0]])])
    one = wedge_elements(standard_basis_matrix(G, 2, []))
    assert rubin_membership(one, gens, xi_approx(G)).kind == "exact-yes"


def test_epsilon_trivial_group():
    G = group_from_catalog("C1")
    M = GroupAlgebraMatrix.from_int_grid(G, [[2], [3]])
    eps = epsilon_from_matrix(M)
    coords = [v.as_rational() for v in eps.comps[0]]
    # spans ker(2x + 3y = 0) up to sign
    assert coords in ([Fraction(3), Fraction(-2)], [Fraction(-3), Fraction(2)])


def test_epsilon_requires_more_rows():
    G = group_from_catalog("C2")
    with pytest.raises(ValueError):
        epsilon_from_matrix(GroupAlgebraMatrix.identity(G, 2))


def test_epsilon_pairing_identity():
    rng = random.Random(6)
    for name in ("C6", "S3", "Q8"):
        G = group_from_catalog(name)
        for _ in range(3):
            d = rng.randrange(1, 3)
            dp = d + rng.randrange(1, 3)
            r = dp - d
            M = rand_gam(rng, G, dp, d)
            eps = epsilon_from_matrix(M)
            Mp = rand_gam(rng, G, dp, r)
            phis = GroupAlgebraMatrix.from_entries(
                G, [[Mp.entries[t][j] for t in range(dp)] for j in range(r)])
            block = GroupAlgebraMatrix.from_entries(
                G, [[Mp.entries[t][j] if j < r else M.entries[t][j - r]
                     for j in range(dp)] for t in range(dp)])
            assert pair(wedge_homs(phis), eps) == nrd(block)


def test_epsilon_vanishing_criterion():
    rng = random.Random(7)
    for name in ("C6", "S3"):
        G = group_from_catalog(name)
        for _ in range(4):
            d = rng.randrange(1, 3)
            M = rand_gam(rng, G, d + rng.randrange(1, 3), d, 1)
            for nonzero, generic in epsilon_vanishing(M):
                assert nonzero == generic


def test_epsilon_image_and_fitting_lattice_abelian():
    # over an abelian group the pool-generated Fitting lattice is exact, so
    # every pairing of the kernel element lies inside it
    rng = random.Random(8)
    G = group_from_catalog("C6")
    M = rand_gam(rng, G, 2, 1, 1)
    r = 1
    eps = epsilon_from_matrix(M)
    zero = GroupAlgebraElement.zero(G)
    padded = GroupAlgebraMatrix.from_entries(
        G, [[zero if j < r else M.entries[t][j - r] for j in range(2)]
            for t in range(2)])
    fit = fit_matrix(padded, r)
    for _ in range(6):
        Mp = rand_gam(rng, G, 2, r, 2)
        phis = GroupAlgebraMatrix.from_entries(
            G, [[Mp.entries[t][j] for t in range(2)] for j in range(r)])
        assert fit.contains(pair(wedge_homs(phis), eps))


def test_fitting_lattice_inside_epsilon_pairing_span():
    # conversely (any group): the budgeted Fitting lattice is generated by
    # pool replacements, each of which is a pairing value of the kernel
    # element, so it embeds in the order-span of enumerated pairings
    rng = random.Random(9)
    G = group_from_catalog("S3")
    xi = xi_approx(G, Budget(max_matrix_size=1))
    M = rand_gam(rng, G, 2, 1, 1)
    r = 1
    eps = epsilon_from_matrix(M)
    zero = GroupAlgebraElement.zero(G)
    padded = GroupAlgebraMatrix.from_entries(
        G, [[zero if j < r else M.entries[t][j - r] for j in range(2)]
            for t in range(2)])
    fit = fit_matrix(padded, r, xi=xi)
    values = []
    for i in range(2):
        phis = standard_basis_matrix(G, 2, [i])
        values.append(pair(wedge_homs(phis), eps))
    gens = [x * y for x in values for y in xi.elements()]
    span = lattice_from_central(G, gens)
    assert span.contains_lattice(fit)


def test_rubin_free_module_basis_wedge():
    for name in ("C4", "S3"):
        G = group_from_catalog(name)
        xi = xi_approx(G, Budget(max_matrix_size=1))
        W = standard_basis_matrix(G, 2, range(2))
        xe = wedge_elements(W)
        assert rubin_membership(xe, W, xi).kind == "exact-yes"


def test_rubin_denominator_rejected():
    G = group_from_catalog("C4")
    xi = xi_approx(G)
    W = standard_basis_matrix(G, 2, range(2))
    xe = wedge_elements(W).scale(Fraction(1, 5))
    v = rubin_membership(xe, W, xi)
    assert v.kind == "certified-no"


def test_rubin_ideal_stability():
    G = group_from_catalog("C6")
    xi = xi_approx(G)
    W = standard_basis_matrix(G, 1, range(1))
    member = wedge_elements(W).scale(xi.elements()[2])
    assert rubin_membership(member, W, xi).passed


def test_rubin_degenerate_lattice_rejected():
    G = group_from_catalog("C2")
    xi = xi_approx(G)
    gens = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.zero(G), GroupAlgebraElement.zero(G)]])
    xe = wedge_elements(standard_basis_matrix(G, 2, [0]))
    with pytest.raises(ValueError):
        rubin_membership(xe, gens, xi)


def test_rubin_nonfree_certified_no():
    # M = <2, 1+g> inside Z[C2]: the basis vector 1 pairs to (1-g)/2
    # against a dual generator, which is not integral
    G = group_from_catalog("C2")
    xi = xi_approx(G)
    gens = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [2, 0])],
            [GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    xe = wedge_elements(standard_basis_matrix(G, 1, range(1)))
    assert rubin_membership(xe, gens, xi).kind == "certified-no"
    # 2 * b_1 = (2,0) is a generator, hence a member
    two = wedge_elements(GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [2, 0])]]))
    assert rubin_membership(two, gens, xi).passed
