"""Whitehead-order approximation, denominator ideal, Fitting invariants,
annihilation: spec examples plus randomized exact comparisons."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax import algebra, fitting
from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          adjoint_star, char_value, cleared_rows, nrd)
from grax.cyclotomic import CycloNum
from grax.fitting import (Budget, _conjugacy_rep, _monomial_matrix, _monomial_walk,
                          _normalised_monomials, annihilation_check, delta_check,
                          fit_classical_oracle, fit_matrix, fit_transpose, hash_lattice,
                          lattice_from_central, leibniz_det, regular_int_rows, xi_approx)
from grax.groups import group_from_catalog
from grax.lattices import hnf, smith_normal_form
from grax.reps import irreps


def rand_gam(rng, G, r, c, h=3):
    return GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(
                G, [rng.randrange(-h, h + 1) for _ in range(G.order)])
             for _ in range(c)] for _ in range(r)])


SMALL = Budget(max_matrix_size=1)


def _small_elements(G, budget):
    """xi_approx's and delta_check's 1x1 family, enumerated here one member
    at a time as group-algebra elements, and its size before the candidate
    budget cut it."""
    out = []
    heights = [h for h in range(-budget.coeff_height, budget.coeff_height + 1) if h]
    total = sum(math.comb(G.order, size) * len(heights) ** size
                for size in range(1, budget.support + 1))
    for size in range(1, budget.support + 1):
        for supp in itertools.combinations(range(G.order), size):
            for coeffs in itertools.product(heights, repeat=size):
                if len(out) >= budget.max_candidates:
                    return out, total
                vec = [0] * G.order
                for g, c in zip(supp, coeffs):
                    vec[g] = c
                out.append(GroupAlgebraElement.from_coeffs(G, vec))
    return out, total


def test_xi_abelian_exact():
    for n in (1, 2, 5, 6):
        G = group_from_catalog(f"C{n}")
        xi = xi_approx(G)
        assert xi.exact and xi.stable
        # the image of Z[G] in class coordinates is the full integer lattice
        assert xi.denominator == 1
        assert xi.lattice.basis == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))


def test_xi_trivial_group_is_z():
    xi = xi_approx(group_from_catalog("C1"))
    assert xi.lattice.basis == ((1,),) and xi.denominator == 1


def test_xi_q8_contains_derived_generator():
    G = group_from_catalog("Q8")
    xi = xi_approx(G)
    target = CentralElement(G, tuple(CycloNum.from_rational(v)
                                     for v in (2, 0, 2, 0, 2)))
    # the generator is nrd(1 + i), so it must be a genuine member
    x = GroupAlgebraElement.from_coeffs(G, [1, 0, 1, 0, 0, 0, 0, 0])
    assert nrd(GroupAlgebraMatrix.from_entries(G, [[x]])) == target
    assert xi.contains(target)
    assert xi.stable


def test_xi_monotone_in_budget():
    G = group_from_catalog("S3")
    small = xi_approx(G, Budget(max_matrix_size=1, support=1))
    big = xi_approx(G, Budget(max_matrix_size=1, support=2))
    assert big.contains_lattice(small)


@pytest.mark.parametrize("name, count", [("S3", 21), ("D4", 23), ("Q8", 23)])
def test_normalised_monomials_meet_every_orbit(name, count):
    # from the group table alone: the orbits of the representatives under
    # R -> D1 R D2, D1 = diag(a, b) and D2 = diag(c, d) with group-element
    # entries, cover the 2x2 matrices with entries in {0} and G
    G = group_from_catalog(name)
    reps = list(_normalised_monomials(G, 2))
    assert len(reps) == count

    def scale(a, x, c):
        return None if x is None else G.mul(G.mul(a, x), c)

    covered = {(scale(a, R[0][0], c), scale(a, R[0][1], d),
                scale(b, R[1][0], c), scale(b, R[1][1], d))
               for R in reps for a, b, c, d in itertools.product(range(G.order), repeat=4)}
    assert covered == set(itertools.product([None, *range(G.order)], repeat=4))


def _conjugate(G, grid, k):
    """The grid k R k^-1, as a tuple of rows."""
    return tuple(tuple(None if g is None else G.mul(G.mul(k, g), G.inv(k)) for g in row)
                 for row in grid)


@pytest.mark.parametrize("name, size, candidates",
                         [("S3", 2, 20000), ("D4", 2, 20000), ("Q8", 2, 20000), ("S3", 3, 300)])
def test_monomial_walk_meets_each_conjugacy_orbit_first(name, size, candidates):
    # against a brute-force reference that conjugates by every k and never
    # calls _grid_rep: the walk yields the first grid of each conjugacy orbit
    # of the budget's slice, and the provenance counts that slice as tried
    G = group_from_catalog(name)
    budget = Budget(max_matrix_size=size, max_candidates=candidates)
    space = [tuple(map(tuple, grid)) for grid in _normalised_monomials(G, size)]
    grids = space[:candidates]
    walk = [tuple(map(tuple, grid)) for grid in _monomial_walk(G, size, budget)]
    at = [grids.index(R) for R in walk]
    assert at == sorted(at)
    orbit = {R: {_conjugate(G, R, k) for k in range(G.order)} for R in walk}
    for i, R in enumerate(walk):
        assert not any(S in orbit[R] for S in walk[i + 1:])
    for i, grid in enumerate(grids):
        assert any(j <= i and grid in orbit[R] for j, R in zip(at, walk))
    assert min(candidates, len(space)) == len(grids)
    label = f"{size}x{size} monomial matrices"
    if len(grids) < len(space):
        label += f" (truncated: {len(grids)} of {len(space)} tried)"
    assert xi_approx(G, Budget(max_matrix_size=size, max_candidates=candidates,
                               rounds=0)).provenance[-1] == label


def _closed(G, gens):
    lat = lattice_from_central(G, gens)
    while True:
        els = lat.elements()
        merged = lattice_from_central(G, els + [x * y for x in els for y in els])
        if merged == lat:
            return lat
        lat = merged


def _every_2x2_monomial(G):
    """Every 2x2 matrix with entries in {0} and G, not up to units."""
    entries = [GroupAlgebraElement.zero(G)] + [
        GroupAlgebraElement.basis(G, g) for g in range(G.order)]
    return [GroupAlgebraMatrix.from_entries(G, [[w, x], [y, z]])
            for w, x, y, z in itertools.product(entries, repeat=4)]


def test_xi_s3_equals_closure_of_all_monomial_matrices():
    G = group_from_catalog("S3")
    one_by_one = [GroupAlgebraElement.from_coeffs(
                      G, [dict(zip(supp, cs)).get(g, 0) for g in range(G.order)])
                  for size in (1, 2)
                  for supp in itertools.combinations(range(G.order), size)
                  for cs in itertools.product((-1, 1), repeat=size)]
    full = _every_2x2_monomial(G)
    assert len(full) == 2401
    gens = [nrd(GroupAlgebraMatrix.from_entries(G, [[x]])) for x in one_by_one]
    gens += [nrd(M) for M in full]
    xi = xi_approx(G)
    assert xi.stable
    assert xi == _closed(G, gens)


def test_xi_s4_covers_every_representative():
    G = group_from_catalog("S4")
    assert len(list(_normalised_monomials(G, 2))) == 39
    xi = xi_approx(G)
    assert xi.stable
    assert xi.provenance == ("1x1 elements: support<=2 height<=1", "2x2 monomial matrices")


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "D5", "D6", "S4"])
def test_xi_contains_every_class_sum(name):
    # zeta(Z[G]) lies in xi (Johnston-Nickel), but the closure is not seeded
    # with the class sums; the monomial family reaches them on these groups
    G = group_from_catalog(name)
    xi = xi_approx(G)
    classes = len(G.conjugacy_classes)
    for k in range(classes):
        assert xi.lattice.contains([xi.denominator * int(i == k) for i in range(classes)])


def test_xi_truncated_budget_reports_counts():
    G = group_from_catalog("S3")
    xi = xi_approx(G, Budget(max_candidates=10))
    # the ten elements tried are -g and g for g = 0..4, so g = 5 is added
    assert xi.provenance == (
        "1x1 elements: support<=2 height<=1 (truncated: 10 of 72 tried)",
        "1x1 group elements: 1",
        "2x2 monomial matrices (truncated: 10 of 21 tried)")
    assert xi_approx(G).contains_lattice(xi)


@pytest.mark.parametrize("name, candidates, basis, denominator", [
    ("Q8", 12, ((1, 1, 0, 0, 1), (0, 2, 0, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 1),
                (0, 0, 0, 0, 2)), 2),
    ("A4", 3, ((1, 0, 3, -3), (0, 1, 3, -4), (0, 0, 4, -4)), 4),
])
def test_xi_closing_round_grows_the_lattice(name, candidates, basis, denominator):
    # with few 1x1 candidates, the span of their reduced norms is not closed
    # under products: a closing round adds to it, and the next one nothing
    G = group_from_catalog(name)
    budget = Budget(max_matrix_size=1, max_candidates=candidates)
    before = xi_approx(G, Budget(max_matrix_size=1, max_candidates=candidates, rounds=0))
    xi = xi_approx(G, budget)
    assert xi.stable and not before.stable
    assert xi.contains_lattice(before) and not before.contains_lattice(xi)
    assert (xi.lattice.basis, xi.denominator) == (basis, denominator)


def _each_members_nrd(G, budget):
    """The reduced norm of each member of xi_approx's families, one by one:
    the 1x1 family, the group elements it lacks, and the monomial matrices."""
    members = _small_elements(G, budget)[0]
    if budget.max_matrix_size >= 2:
        members += [x for x in (GroupAlgebraElement.basis(G, g) for g in range(G.order))
                    if x not in members]
    gens = [nrd(GroupAlgebraMatrix.from_entries(G, [[x]])) for x in members]
    for size in range(2, budget.max_matrix_size + 1):
        gens += [nrd(_monomial_matrix(G, grid)) for grid in
                 itertools.islice(_normalised_monomials(G, size), budget.max_candidates)]
    return gens


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
@pytest.mark.parametrize("budget", [Budget(rounds=0), Budget(rounds=0, max_candidates=10),
                                    Budget(rounds=0, support=1)])
def test_xi_before_closing_is_the_span_of_each_members_nrd(name, budget):
    # xi takes one nrd per translate-and-conjugate orbit; before any closing
    # round its lattice must still be the span of every member's own nrd
    # (A4 has irrational characters, so each product runs the Galois check)
    G = group_from_catalog(name)
    xi = xi_approx(G, budget)
    assert xi == lattice_from_central(G, _each_members_nrd(G, budget))
    assert not xi.stable


def test_conjugacy_rep_is_a_class_invariant():
    G = group_from_catalog("S4")
    rng = random.Random(4)
    for size in (1, 2, 3, 4):
        for _ in range(10):
            pairs = tuple(zip(rng.sample(range(G.order), size), rng.choices((-1, 1, 2), k=size)))
            rep = _conjugacy_rep(G, pairs)
            conjugates = [tuple(sorted((G.mul(G.mul(k, g), G.inv(k)), c) for g, c in pairs))
                          for k in range(G.order)]
            assert rep in conjugates
            for conj in conjugates:
                assert _conjugacy_rep(G, conj) == rep


@pytest.mark.parametrize("name, xi_nrd, delta_adjugates", [
    ("S4", 61, 38), ("D4", 45, 38), ("Q8", 45, 38)])
def test_one_nrd_and_one_adjugate_per_orbit(name, xi_nrd, delta_adjugates, monkeypatch):
    # at the default budget the families hold 1,191 (S4) and 151 (D4, Q8)
    # matrices; xi takes one nrd per group element, per 1x1 representative
    # and per conjugacy orbit of monomial matrices, and delta one adjugate
    # per 1x1 representative and per orbit of monomial matrices
    G = group_from_catalog(name)
    calls = {"nrd": 0, "adj": 0}
    nrd_, adj_ = fitting.nrd, fitting._adjoint_int

    def counted(key, fn):
        def call(M):
            calls[key] += 1
            return fn(M)
        return call

    monkeypatch.setattr(fitting, "nrd", counted("nrd", nrd_))
    monkeypatch.setattr(fitting, "_adjoint_int", counted("adj", adj_))
    assert xi_approx(G).stable
    assert calls["nrd"] == xi_nrd
    v = delta_check(CentralElement.from_rational(G, G.order), G)
    assert v.kind == "passed-budget"
    assert calls["adj"] == delta_adjugates


def test_delta_abelian_exact():
    G = group_from_catalog("C6")
    assert delta_check(CentralElement.one(G), G).kind == "exact-yes"
    half = CentralElement.from_rational(G, "1/2")
    v = delta_check(half, G)
    assert v.kind == "certified-no"


def test_delta_order_times_one_passes():
    for name in ("S3", "Q8", "D4"):
        G = group_from_catalog(name)
        v = delta_check(CentralElement.from_rational(G, G.order), G,
                        Budget(max_matrix_size=2, max_candidates=200))
        assert v.passed


def test_delta_rejects_idempotent_image_q8():
    G = group_from_catalog("Q8")
    e_triv = CentralElement(G, tuple(CycloNum.from_rational(v)
                                     for v in (1, 0, 0, 0, 0)))
    v = delta_check(e_triv, G, SMALL)
    assert v.kind == "certified-no"
    assert v.witness.rows == 1  # rejected at the one-by-one stage


def _times_integral(x, star):
    """Whether x * star is integral, entry by entry."""
    xg = x.to_group_algebra()
    return all((xg * e).is_integral() for row in star.entries for e in row)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_adjoint_scales_by_nrd_of_diagonal_units(name):
    # (D1 R D2)* = D2^-1 R* D1^-1 nrd(D1 D2), singular R included
    G = group_from_catalog(name)
    rng = random.Random(name)
    entry = {None: GroupAlgebraElement.zero(G)}
    entry.update((g, GroupAlgebraElement.basis(G, g)) for g in range(G.order))

    def diag(labels):
        return GroupAlgebraMatrix.from_entries(
            G, [[entry[g if i == j else None] for j in range(2)] for i, g in enumerate(labels)])

    singular = 0
    for grid in _normalised_monomials(G, 2):
        R = GroupAlgebraMatrix.from_entries(G, [[entry[g] for g in row] for row in grid])
        singular += nrd(R).has_zero_component()
        star = adjoint_star(R)
        for _ in range(2):
            d1, d2 = rng.choices(range(G.order), k=2), rng.choices(range(G.order), k=2)
            D1, D2 = diag(d1), diag(d2)
            inv1, inv2 = diag([G.inv(g) for g in d1]), diag([G.inv(g) for g in d2])
            assert adjoint_star(D1 * R * D2) == \
                inv2 * star * inv1 * nrd(D1 * D2).to_group_algebra()
    assert singular > 0


def test_delta_matches_all_monomial_matrices_s3():
    G = group_from_catalog("S3")
    budget = Budget(support=1)
    three, six = (CentralElement.from_rational(G, q) for q in (3, 6))
    assert delta_check(three, G, Budget(support=1, max_matrix_size=1)).kind == "passed-budget"
    v = delta_check(three, G, budget)
    assert v.kind == "certified-no" and v.witness.rows == 2
    assert v.witness.is_integral() and not _times_integral(three, adjoint_star(v.witness))
    assert delta_check(six, G, budget).kind == "passed-budget"
    stars = [adjoint_star(M) for M in _every_2x2_monomial(G)]
    assert not all(_times_integral(three, s) for s in stars)
    assert all(_times_integral(six, s) for s in stars)


def _delta_oracle(x, G, budget):
    """delta_check's enumeration with x * M* tested by GroupAlgebraElement
    products of adjoint_star entries."""
    def integral(c, M):
        return all((c * e).is_integral() for row in adjoint_star(M).entries for e in row)

    twists = []
    for g in range(G.order):
        c = (x * nrd(_monomial_matrix(G, [[g]]))).to_group_algebra()
        if not c.is_integral():
            return "certified-no", _monomial_matrix(G, [[g]])
        if all(c != t for _, t in twists):
            twists.append((g, c))
    for y in _small_elements(G, budget)[0]:
        M = GroupAlgebraMatrix.from_entries(G, [[y]])
        if not integral(x.to_group_algebra(), M):
            return "certified-no", M
    for size in range(2, budget.max_matrix_size + 1):
        for grid in itertools.islice(_normalised_monomials(G, size), budget.max_candidates):
            for g, c in twists:
                if not integral(c, _monomial_matrix(G, grid)):
                    top = [None if h is None else G.mul(g, h) for h in grid[0]]
                    return "certified-no", _monomial_matrix(G, [top, *grid[1:]])
    return "passed-budget", None


@st.composite
def _delta_cases(draw):
    G = group_from_catalog(draw(st.sampled_from(["S3", "D4", "Q8"])))
    if draw(st.booleans()):
        x = CentralElement.from_rational(G, draw(st.sampled_from(
            [1, 2, 3, G.order // 2, G.order, 3 * G.order])))
    else:
        x = CentralElement.from_coords(G, draw(st.lists(
            st.integers(-G.order, G.order), min_size=len(G.conjugacy_classes),
            max_size=len(G.conjugacy_classes))))
    budget = draw(st.sampled_from([Budget(max_matrix_size=1), Budget(support=1),
                                   Budget(support=1, max_candidates=10)]))
    return x, G, budget


@pytest.mark.parametrize("name, q, budget, rows", [
    ("S3", 1, SMALL, 1), ("S3", 3, Budget(support=1), 2), ("D4", 2, Budget(), 1),
    ("Q8", 2, Budget(support=1), 2), ("D4", 4, Budget(support=1), None)])
def test_delta_matches_the_group_ring_oracle_at_fixed_inputs(name, q, budget, rows):
    # certified-no at the 1x1 and at the 2x2 stage, and one pass
    G = group_from_catalog(name)
    x = CentralElement.from_rational(G, q)
    v = delta_check(x, G, budget)
    assert (v.kind, v.witness) == _delta_oracle(x, G, budget)
    assert (v.witness.rows if v.witness else None) == rows


@pytest.mark.parametrize("name, coords, budget, witness", [
    # x nrd(g) is not integral at g = 1 or 2: the translate [[g]]
    ("S3", (1, 0, 0), SMALL, {1: 1}), ("Q8", (1, 0, 0, 0, 0), SMALL, {2: 1}),
    ("A4", (1, 0, 0, 0), SMALL, {1: 1}),
    # every twist is integral, and a member -1 - g of the 1x1 family fails;
    # no input is known where the first failing member is a translate or a
    # conjugate of its representative, which is itself a member before them
    ("S3", (0, 1, 0), Budget(), {0: -1, 1: -1}),
    ("Q8", (2, 0, 0, 0, 0), Budget(), {0: -1, 2: -1}),
    ("D4", (8, 0, 0, 0, 0), Budget(support=3, max_matrix_size=1), None),
    ("S3", (0, 1, 0), Budget(support=3, max_matrix_size=1), {0: -1, 1: -1}),
    ("S3", (6, 0, 0), Budget(support=3, max_matrix_size=1, max_candidates=150), None)])
def test_delta_witness_is_the_first_failing_member(name, coords, budget, witness):
    G = group_from_catalog(name)
    x = CentralElement.from_coords(G, coords)
    v = delta_check(x, G, budget)
    assert (v.kind, v.witness) == _delta_oracle(x, G, budget)
    if witness is None:
        assert v.kind == "passed-budget"
    else:
        assert v.witness == GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.from_coeffs(
            G, [witness.get(g, 0) for g in range(G.order)])]])


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_translates_and_conjugates_share_nrd_and_adjoint_integrality(name):
    # each member is y = h k r k^-1 for some k, nrd(y) = nrd(h) nrd(r), and
    # x y* is integral exactly when x nrd(h) r* is, checked member by member
    # in the group ring
    G = group_from_catalog(name)
    xs = [CentralElement.from_rational(G, q) for q in (1, 2, 3, G.order // 2)]
    xs.append(CentralElement.from_coords(G, [int(i == 1) for i in range(len(G.conjugacy_classes))]))
    star, norm = {}, {}
    for pairs, h, r in fitting._small_elements(G, Budget())[0]:
        for key in (((h, 1),), r):
            if key not in norm:
                M = fitting._element_matrix(G, key)
                norm[key], star[key] = nrd(M), adjoint_star(M)
        assert pairs in {tuple(sorted((G.mul(h, G.mul(G.mul(k, g), G.inv(k))), c) for g, c in r))
                         for k in range(G.order)}
        y = fitting._element_matrix(G, pairs)
        assert nrd(y) == norm[((h, 1),)] * norm[r]
        ystar = adjoint_star(y)
        for x in xs:
            assert _times_integral(x, ystar) == _times_integral(x * norm[((h, 1),)], star[r])


@settings(max_examples=20, deadline=None)
@given(_delta_cases())
def test_delta_matches_the_group_ring_oracle(case):
    x, G, budget = case
    v = delta_check(x, G, budget)
    assert (v.kind, v.witness) == _delta_oracle(x, G, budget)


def test_delta_s4_order_passes():
    G = group_from_catalog("S4")
    assert delta_check(CentralElement.from_rational(G, 24), G).kind == "passed-budget"


def test_fit_square_a0_is_principal():
    rng = random.Random(0)
    for name in ("C4", "S3"):
        G = group_from_catalog(name)
        xi = xi_approx(G, SMALL)
        M = rand_gam(rng, G, 2, 2, 2)
        f0 = fit_matrix(M, 0, xi=xi)
        principal = [x * nrd(M) for x in xi.elements()]
        assert f0 == lattice_from_central(G, principal)


def test_fit_trivial_group_examples():
    G = group_from_catalog("C1")
    M = GroupAlgebraMatrix.from_int_grid(G, [[2, 0], [0, 3]])
    assert fit_matrix(M, 0).lattice.basis == ((6,),)
    assert fit_matrix(M, 1).lattice.basis == ((1,),)
    assert fit_classical_oracle(M, 0).lattice.basis == ((6,),)
    assert fit_classical_oracle(M, 1).lattice.basis == ((1,),)


def test_fit_unit_ideal_for_large_a():
    G = group_from_catalog("C3")
    rng = random.Random(1)
    M = rand_gam(rng, G, 3, 2, 2)
    unit_rows = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    for a in (2, 3, 5):
        oracle = fit_classical_oracle(M, a)
        assert oracle.denominator == 1 and oracle.lattice.basis == unit_rows
    assert fit_matrix(M, 2).lattice.basis == unit_rows


def test_fit_negative_a_rejected():
    G = group_from_catalog("C2")
    with pytest.raises(ValueError):
        fit_matrix(GroupAlgebraMatrix.identity(G, 1), -1)
    with pytest.raises(ValueError):
        fit_classical_oracle(GroupAlgebraMatrix.identity(G, 1), -1)


def test_fit_oracle_equivalence_random():
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randrange(1, 7)
        G = group_from_catalog(f"C{n}")
        d = rng.randrange(1, 4)
        dp = rng.randrange(d, 4)
        M = rand_gam(rng, G, dp, d, 4)
        for a in (0, 1, 2):
            assert fit_matrix(M, a) == fit_classical_oracle(M, a)


def test_fit_chain_s3():
    rng = random.Random(3)
    G = group_from_catalog("S3")
    xi = xi_approx(G, SMALL)
    for _ in range(5):
        M = rand_gam(rng, G, 2, 2, 2)
        f = [fit_matrix(M, a, xi=xi) for a in (0, 1, 2)]
        assert f[1].contains_lattice(f[0])
        assert f[2].contains_lattice(f[1])


def test_containment_refuses_an_element_or_lattice_over_another_group():
    # S3 and C3 both have three classes, so their class coordinates have one
    # length; unchecked, S3's xi "contained" C3's 1 and C3's unit lattice
    S3, C3 = group_from_catalog("S3"), group_from_catalog("C3")
    xi = xi_approx(S3, SMALL)
    with pytest.raises(ValueError, match="^an element over C3 tested against a lattice over S3$"):
        xi.contains(CentralElement.one(C3))
    with pytest.raises(ValueError, match="^a lattice over C3 tested against a lattice over S3$"):
        xi.contains_lattice(lattice_from_central(C3, [CentralElement.one(C3)]))
    assert xi.contains(CentralElement.one(S3))
    assert xi.contains_lattice(lattice_from_central(S3, [CentralElement.one(S3)]))


def test_contains_lattice_across_denominators():
    # a basis row v of other stands for v / other.denominator
    G = group_from_catalog("Q8")
    one = CentralElement.one(G)
    units, halves = (lattice_from_central(G, [one * q]) for q in (1, Fraction(1, 2)))
    thirds = lattice_from_central(G, [one * Fraction(2, 3), one])
    assert halves.denominator == 2 and thirds.denominator == 3
    assert halves.contains_lattice(units) and not units.contains_lattice(halves)
    assert thirds.contains_lattice(units) and not thirds.contains_lattice(halves)
    assert not units.contains(one * Fraction(2, 3)) and thirds.contains(one * Fraction(-4, 3))


def test_fit_oracle_rejects_nonabelian():
    G = group_from_catalog("S3")
    with pytest.raises(ValueError):
        fit_classical_oracle(GroupAlgebraMatrix.identity(G, 1), 0)


def test_fit_refuses_xi_over_another_group():
    # an xi over another group spans a lattice in the wrong class-sum basis;
    # the abelian branch, which reads no xi, refuses it too
    rng = random.Random(7)
    xi_d4 = xi_approx(group_from_catalog("D4"), SMALL)
    for name in ("S3", "Q8", "C4"):
        G = group_from_catalog(name)
        M = rand_gam(rng, G, 2, 2, 1)
        with pytest.raises(ValueError, match="not over"):
            fit_matrix(M, 0, Budget(), xi_d4)
        with pytest.raises(ValueError, match="not over"):
            fit_transpose(M, 1, Budget(), xi_d4)


def test_laplace_sign_is_the_degree_power():
    # column 1 replaced by b_0: the entry 1 sits at r + q = 0 + 1, odd, so the
    # minor is eps nrd([[m10]]) with eps_chi = (-1)^chi(1)
    G = group_from_catalog("S3")
    assert [rep.degree for rep in irreps(G)] == [1, 1, 2]
    m00 = GroupAlgebraElement.from_coeffs(G, [1, -1, 2, 0, 1, 0])
    # 2 + g: no eigenvalue of a character's image of g is -2
    m10 = GroupAlgebraElement.from_coeffs(G, [2, 1, 0, 0, 0, 0])
    one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
    minor = nrd(GroupAlgebraMatrix.from_entries(G, [[m00, one], [m10, zero]]))
    entry = nrd(GroupAlgebraMatrix.from_entries(G, [[m10]]))
    assert not entry.has_zero_component()
    assert list(minor.values) == [s * v for s, v in zip((-1, -1, 1), entry.values)]


@pytest.mark.parametrize("name", ["C4", "C6"])
def test_fit_matches_oracle_with_several_basis_columns(name):
    # a >= 2 takes out two or three basis columns by Laplace expansion
    rng = random.Random(9)
    G = group_from_catalog(name)
    for rows in (3, 4):
        M = rand_gam(rng, G, rows, 3, 2)
        for a in (2, 3):
            assert fit_matrix(M, a) == fit_classical_oracle(M, a)


ABELIAN = [f"C{n}" for n in range(1, 9)] + ["C2xC2", "C2xC4", "C3xC3", "C2xC6"]
NON_CYCLIC = ABELIAN[8:]


def _translate_span(G, minors):
    """(denominator, HNF rows) of the Z-span of g x for every minor x and
    every group element g, over the least denominator."""
    denom = math.lcm(1, *(x.den for x in minors))
    rows = [[x.num[G.mul(G.inv(g), h)] * (denom // x.den) for h in range(G.order)]
            for x in minors for g in range(G.order)]
    basis = hnf(rows, G.order).basis
    common = math.gcd(denom, *(v for row in basis for v in row))
    return denom // common, tuple(tuple(v // common for v in row) for row in basis)


def _every_minor(M, a, budget):
    """Every cols x cols minor of [M | pool] with at most a columns of M
    replaced, by the Leibniz expansion of the full minor: the pool is each
    basis column b_i and each b_i + h b_j (i < j, 1 <= h <= coeff_height)
    when coeff_height >= 2."""
    G, rows, d = M.group, M.rows, M.cols
    one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
    pool = [[one if u == i else zero for u in range(rows)] for i in range(rows)]
    if budget.coeff_height >= 2:
        pool += [[one if u == i else one * h if u == j else zero for u in range(rows)]
                 for i, j in itertools.combinations(range(rows), 2)
                 for h in range(1, budget.coeff_height + 1)]
    out = []
    for t in range(min(a, d) + 1):
        for replaced in itertools.combinations(range(d), t):
            for picks in itertools.product(pool, repeat=t):
                cols = {j: col for j, col in zip(replaced, picks)}
                for rsub in itertools.combinations(range(rows), d):
                    out.append(leibniz_det(G, [[cols[j][u] if j in cols else M.entries[u][j]
                                                for j in range(d)] for u in rsub]))
    return out


@st.composite
def _abelian_fit_cases(draw):
    G = group_from_catalog(draw(st.sampled_from(ABELIAN)))
    d = draw(st.integers(1, 3))
    rows = draw(st.integers(d, 3))
    height = draw(st.sampled_from((1, 2) if d < 3 else (1,)))
    den = st.sampled_from((1, 2, 3)) if draw(st.booleans()) else st.just(1)
    coeff = st.builds(Fraction, st.integers(-2, 2), den)
    entry = st.dictionaries(st.integers(0, G.order - 1), coeff, max_size=2).map(
        lambda cs: GroupAlgebraElement.from_coeffs(G, [cs.get(g, 0) for g in range(G.order)]))
    grid = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=rows, max_size=rows))
    return GroupAlgebraMatrix.from_entries(G, grid), draw(st.integers(0, d)), Budget(coeff_height=height)


@settings(max_examples=60, deadline=None)
@given(_abelian_fit_cases())
def test_abelian_fit_is_the_span_of_every_minor_translate(case):
    # fit_matrix spans the minors and translates only a basis of their span;
    # the Z[G]-span of the minors is the Z-span of all their translates
    M, a, budget = case
    L = fit_matrix(M, a, budget)
    assert (L.denominator, L.lattice.basis) == _translate_span(M.group, _every_minor(M, a, budget))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NON_CYCLIC).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(1, 3), st.integers(0, 3),
                           st.integers(0, 3), st.randoms(use_true_random=False))))
def test_fit_matches_oracle_over_non_cyclic_groups(case):
    name, d, extra, a, rng = case
    G = group_from_catalog(name)
    M = rand_gam(rng, G, min(d + extra, 3), d, 2)
    assert fit_matrix(M, min(a, d)) == fit_classical_oracle(M, min(a, d))


def test_fit_transpose_a0_d4():
    rng = random.Random(4)
    G = group_from_catalog("D4")
    xi = xi_approx(G, SMALL)
    for _ in range(4):
        M = rand_gam(rng, G, 2, 2, 2)
        assert fit_transpose(M, 0, xi=xi) == hash_lattice(fit_matrix(M, 0, xi=xi))


def test_fit_transpose_abelian_a1():
    rng = random.Random(5)
    G = group_from_catalog("C6")
    for _ in range(6):
        M = rand_gam(rng, G, 2, 2, 3)
        assert fit_transpose(M, 1) == hash_lattice(fit_matrix(M, 1))


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "D5", "C12", "S4"])
def test_hash_lattice_permutes_class_coordinates(name):
    # the reference: # on each central generator's character values, spanned
    # again from class coordinates
    rng = random.Random(8)
    G = group_from_catalog(name)
    xi = xi_approx(G, SMALL)
    lattices = [xi] + [fit_matrix(rand_gam(rng, G, rows, 2, 1), a, SMALL, xi)
                       for rows, a in ((2, 0), (3, 1))]
    for L in lattices:
        ref = lattice_from_central(G, [x.hash_involution() for x in L.elements()],
                                   L.provenance + ("#",), L.stable, L.exact)
        got = hash_lattice(L)
        assert got == ref and (got.provenance, got.stable, got.exact) == \
            (ref.provenance, ref.stable, ref.exact)


def test_fit_transpose_symmetric_fixed():
    rng = random.Random(6)
    G = group_from_catalog("S3")
    xi = xi_approx(G, SMALL)
    a = GroupAlgebraElement.from_coeffs(G, [rng.randrange(-2, 3) for _ in range(6)])
    sym = a + a.involute()
    M = GroupAlgebraMatrix.from_entries(G, [[sym]])
    assert fit_transpose(M, 0, xi=xi) == fit_matrix(M, 0, xi=xi)


def test_annihilation_trivial_group():
    G = group_from_catalog("C1")
    M = GroupAlgebraMatrix.from_int_grid(G, [[2, 1], [1, 2]])
    assert annihilation_check(M, CentralElement.one(G))


def test_annihilation_c2_example():
    # M = [2 + g]: the integer matrix of multiplication is [[2,1],[1,2]],
    # whose Smith invariants are (1, 3); nrd = 3 at the trivial character
    invariants, _, _ = smith_normal_form([[2, 1], [1, 2]])
    assert invariants == (1, 3)
    G = group_from_catalog("C2")
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [2, 1])]])
    assert annihilation_check(M, CentralElement.one(G))


def test_annihilation_random_s3():
    rng = random.Random(7)
    G = group_from_catalog("S3")
    done = 0
    while done < 8:
        M = rand_gam(rng, G, 2, 2, 2)
        if nrd(M).has_zero_component():
            continue
        done += 1
        assert annihilation_check(M, CentralElement.from_rational(G, 6))


def test_annihilation_preconditions():
    G = group_from_catalog("C2")
    singular = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]])
    with pytest.raises(ValueError):
        annihilation_check(singular, CentralElement.one(G))
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [2, 1])]])
    with pytest.raises(ValueError):
        annihilation_check(M, CentralElement.from_rational(G, "1/5"))


def _bareiss_det(A):
    """Fraction-free integer elimination (Bareiss, Math. Comp. 22, 1968)."""
    A = [list(r) for r in A]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not A[k][k]:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _nonsingular_input(name, d, seed):
    """A d x d matrix over Z[G] with entries in {0, +-1, 2} and no zero nrd component."""
    rng = random.Random(seed)
    G = group_from_catalog(name)
    while True:
        M = GroupAlgebraMatrix.from_entries(
            G, [[GroupAlgebraElement.from_coeffs(
                    G, [rng.choice([0, 0, 1, -1, 2]) for _ in range(G.order)])
                 for _ in range(d)] for _ in range(d)])
        if not nrd(M).has_zero_component():
            return M


@pytest.mark.parametrize("name, d, seed", [("A4", 3, 1), ("A4", 3, 2), ("A4", 3, 3),
                                           ("S4", 2, 1)])
def test_annihilation_on_large_regular_representations(name, d, seed):
    # 36 x 36 and 48 x 48 integer matrices, where the transform-carrying
    # Smith form did not finish within a minute
    M = _nonsingular_input(name, d, seed)
    G = M.group
    rows = regular_int_rows(M)
    size = len(rows)
    D = abs(_bareiss_det(rows))
    image = hnf([[D * (i == j) for j in range(size)] for i in range(size)] + rows, size)
    # the image has index D, so adding D * Z^N does not enlarge it
    assert math.prod(image.basis[i][i] for i in range(size)) == D
    assert all(image.contains(r) for r in rows)
    assert annihilation_check(M, CentralElement.from_rational(G, G.order))


def test_annihilation_can_fail():
    # nrd(M) is integral here but does not annihilate the cokernel; the
    # Smith-form path gave the same verdict
    G = group_from_catalog("S3")
    M = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [0, -2, 0, 2, 1, 2])]])
    assert nrd(M).to_group_algebra().is_integral()
    assert not annihilation_check(M, CentralElement.one(G))
    assert annihilation_check(M, CentralElement.from_rational(G, G.order))


CATALOG_TO_24 = ([f"C{n}" for n in range(1, 25)] + [f"D{n}" for n in range(3, 13)]
                 + [f"C{a}xC{b}" for a in range(2, 5) for b in range(a, 24 // a + 1)]
                 + ["S3", "S4", "A4", "Q8"])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CATALOG_TO_24), st.integers(1, 2), st.integers(0, 2 ** 32))
def test_regular_determinant_is_product_of_reduced_norms(name, d, seed):
    # det_Q(x -> xM on Q[G]^d) = prod_chi nrd_chi(M)^chi(1), the index that
    # annihilation_check's modular HNF relies on; the left side uses only the
    # group table and integer elimination
    rng = random.Random(seed)
    G = group_from_catalog(name)
    M = rand_gam(rng, G, d, d, 2)
    norm = math.prod(v ** rep.degree for rep, v in zip(irreps(G), nrd(M).values))
    assert norm.is_rational()
    assert abs(_bareiss_det(regular_int_rows(M))) == abs(norm.as_rational())


ABELIAN_TO_12 = ([f"C{n}" for n in range(1, 13)]
                 + [f"C{a}xC{b}" for a in range(2, 4) for b in range(a, 12 // a + 1)])


@st.composite
def _abelian_grids(draw):
    G = group_from_catalog(draw(st.sampled_from(ABELIAN_TO_12)))
    k = draw(st.integers(0, 3))
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=6))
    zero = [0] * G.order
    entry = st.one_of(st.just(zero), st.lists(coeff, min_size=G.order, max_size=G.order))
    grid = [[zero] * k if draw(st.integers(0, 4)) == 0 else [draw(entry) for _ in range(k)]
            for _ in range(k)]
    return G, [[GroupAlgebraElement.from_coeffs(G, e) for e in row] for row in grid]


@settings(max_examples=80, deadline=None)
@given(_abelian_grids())
def test_leibniz_det_matches_nrd_character_by_character(case):
    # nrd takes each character's determinant by Bareiss elimination on its
    # integer block, so it shares only the row clearing (cleared_rows) with
    # the Leibniz expansion; test_blocks checks nrd against field
    # determinants of blocks summed from the representation matrices
    G, grid = case
    det = leibniz_det(G, grid)
    norm = nrd(GroupAlgebraMatrix.from_entries(G, grid))
    for rep, value in zip(irreps(G), norm.values):
        assert char_value(rep, det) == value


@st.composite
def _abelian_minors(draw):
    """A k x m grid over an abelian group (k <= 4, Fraction coefficients,
    zero entries likely) and a few k x k minors of it: rows in any order,
    columns in any order, so not increasing."""
    G = group_from_catalog(draw(st.sampled_from(ABELIAN_TO_12)))
    k = draw(st.integers(0, 4))
    m = draw(st.integers(k, k + 2))
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-3, max_value=3, max_denominator=6))
    zero = [0] * G.order
    entry = st.one_of(st.just(zero), st.lists(coeff, min_size=G.order, max_size=G.order))
    grid = [[GroupAlgebraElement.from_coeffs(G, draw(entry)) for _ in range(m)]
            for _ in range(k)]
    minors = draw(st.lists(st.tuples(st.permutations(range(k)),
                                     st.permutations(range(m)).map(lambda p: p[:k])),
                           min_size=1, max_size=4))
    return G, grid, [(tuple(r), tuple(c)) for r, c in minors]


@settings(max_examples=120, deadline=None)
@given(_abelian_minors())
def test_cofactor_minors_match_the_leibniz_expansion(case):
    # fit_matrix's abelian minors: one memoized cofactor expansion per call,
    # the minors sharing their sub-minors, against leibniz_det minor by minor
    G, grid, minors = case
    rows, dens = cleared_rows(grid)
    for (rsub, cols), (vec, den) in zip(minors, fitting._cofactor_dets(G, rows, dens, minors)):
        assert den == math.prod(dens[u] for u in rsub)
        want = leibniz_det(G, [[grid[i][j] for j in cols] for i in rsub])
        assert GroupAlgebraElement._reduced(G, vec, den) == want


def test_abelian_fit_matrix_reads_no_leibniz_expansion(monkeypatch):
    # fit_matrix and its classical oracle share no determinant routine: with
    # the Leibniz expansion broken, fit_matrix still runs and the oracle fails
    def broken(G, grid):
        raise RuntimeError("Leibniz expansion reached")

    monkeypatch.setattr(fitting, "_leibniz_int", broken)
    rng = random.Random(11)
    for name in ("C4", "C2xC2"):
        M = rand_gam(rng, group_from_catalog(name), 3, 2, 2)
        for a in (0, 1, 2):
            fit_matrix(M, a, Budget(coeff_height=2))
        with pytest.raises(RuntimeError, match="Leibniz expansion reached"):
            fit_classical_oracle(M, 1)


def test_classical_oracle_reads_no_cofactors_and_no_characters(monkeypatch):
    # the other side of the test above: with fit_matrix's cofactor expansion
    # and the character round trip (character values, their Galois check,
    # class coordinates) broken, the oracle still gives fit_matrix's lattice
    rng = random.Random(13)
    cases = []
    for name in ("C4", "C8", "C2xC2"):
        M = rand_gam(rng, group_from_catalog(name), 3, 2, 2)
        cases += [(M, a, fit_matrix(M, a)) for a in (0, 1, 2)]

    def broken(*args):
        raise RuntimeError("checked path reached")

    monkeypatch.setattr(fitting, "_cofactor_dets", broken)
    monkeypatch.setattr(algebra, "_character_sums", broken)
    monkeypatch.setattr(algebra, "galois_defect", broken)
    monkeypatch.setattr(CentralElement, "_coords_int", broken)
    for M, a, want in cases:
        assert fit_classical_oracle(M, a) == want


@pytest.mark.parametrize("name", ["C4", "C6", "C2xC2"])
def test_fit_matches_oracle_with_combination_columns(name):
    # coeff_height 2 adds the columns b_i + h b_j (h = 1, 2), whose minors
    # take the columns of [M | combinations] out of increasing order
    rng = random.Random(12)
    G = group_from_catalog(name)
    for rows, cols in ((2, 2), (3, 2), (3, 3)):
        M = rand_gam(rng, G, rows, cols, 2)
        for a in range(cols + 1):
            L = fit_matrix(M, a, Budget(coeff_height=2))
            assert L.exact and L == fit_classical_oracle(M, a)


def test_the_classical_oracle_refuses_a_non_integral_matrix():
    # over C1, [[1, 0], [1/2, 1/2]] at a = 2: the minors with two columns
    # replaced span 1/2 Z (the 1x1 minor 1/2), the 0-minors Z, so the two
    # ideals agree only on integral matrices, and fit_matrix's is not exact
    G = group_from_catalog("C1")
    half = Fraction(1, 2)
    M = GroupAlgebraMatrix.from_int_grid(G, [[1, 0], [half, half]])
    L = fit_matrix(M, 2)
    assert L.denominator == 2 and not L.exact
    with pytest.raises(ValueError, match="integral matrices only"):
        fit_classical_oracle(M, 2)

