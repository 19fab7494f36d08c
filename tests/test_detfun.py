"""Graded determinant calculus: signs, exactness data, assembled automorphisms."""

import random
from fractions import Fraction

import pytest

from grax import linalg
from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          gam_inverse, nrd, wedderburn_block)
from grax.detfun import (GradedInvertible, SesIso, det_free, inverse_object, ses_iso,
                         ses_retraction, ses_swap_sign, swap_sign, tensor,
                         two_term_nrd, unit_object)
from grax.exterior import wedge_elements
from grax.groups import group_from_catalog
from grax.reps import irreps


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


# -- refusals, each with its message ------------------------------------------

def _raises(msg, fn, *args, **kwargs):
    with pytest.raises(ValueError) as exc:
        fn(*args, **kwargs)
    assert str(exc.value) == msg


def _c2_ses():
    # theta = [[1 + g, 0]] over C2 is zero at the sign character
    G = group_from_catalog("C2")
    theta = GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.from_coeffs(G, [1, 1]), GroupAlgebraElement.zero(G)]])
    phi = GroupAlgebraMatrix.from_int_grid(G, [[0], [1]])
    section = GroupAlgebraMatrix.from_int_grid(G, [[0, 1]])
    return theta, phi, section


def test_ses_refusals():
    theta, phi, section = _c2_ses()
    _raises("theta is not injective on a component", ses_iso, theta, phi, section)
    _raises("shape mismatch in exact-sequence data", ses_iso, theta, section, section)
    _raises("rank additivity fails: not a short exact sequence",
            ses_iso, theta, GroupAlgebraMatrix(theta.group, 2, 0, ()),
            GroupAlgebraMatrix(theta.group, 0, 2, ()))
    _raises("phi after theta is nonzero: not a complex",
            ses_iso, theta, GroupAlgebraMatrix.from_int_grid(theta.group, [[1], [1]]), section)
    _raises("section does not split phi",
            ses_iso, theta, phi, GroupAlgebraMatrix.from_int_grid(theta.group, [[0, 2]]))


def test_ses_retraction_refuses_a_singular_basis():
    theta, _, section = _c2_ses()
    _raises("assembled basis is singular", ses_retraction, theta, section)


def _c1(grid):
    return GroupAlgebraMatrix.from_int_grid(group_from_catalog("C1"), grid)


def test_two_term_refusals_and_value_over_c1():
    # theta = s1 = s2 = diag(1, 0): the kernel and the cokernel complement
    # are both the second coordinate
    e = _c1([[1, 0], [0, 0]])
    _raises("comparison is not injective on the kernel",
            two_term_nrd, e, _c1([[0, 0], [0, 0]]), e, e)
    _raises("comparison does not land in the cokernel complement",
            two_term_nrd, e, _c1([[0, 0], [1, 1]]), e, e)
    assert [v.as_rational() for v in two_term_nrd(e, _c1([[0, 0], [0, 5]]), e, e).values] == [5]
    _raises("two-term automorphism needs a square matrix", two_term_nrd, _c1([[1, 0]]))
    _raises("singular theta needs comparison and both sections", two_term_nrd, e)
    _raises("section is not a generalized inverse of theta",
            two_term_nrd, e, e, e, _c1([[2, 0], [0, 0]]))


def test_graded_object_refusals():
    G = group_from_catalog("C2")
    _raises("the given rows are not a basis (singular component)", det_free,
            GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.from_coeffs(G, [1, 1])]]))
    X = unit_object(G)
    _raises("group mismatch", tensor, X, unit_object(group_from_catalog("C3")))
    _raises("generator must be nonzero in every component", GradedInvertible,
            G, (X.scalars[0], X.scalars[0] * 0), X.grading)


def test_graded_object_needs_one_value_and_grading_per_character():
    # tensor and inverse_object zip per character, so a short tuple would be
    # truncated silently
    G = group_from_catalog("S3")
    X = unit_object(G)
    _raises("expected 3 generator values and gradings, got 2 and 3", GradedInvertible,
            G, X.scalars[:2], X.grading)
    _raises("expected 3 generator values and gradings, got 3 and 4", GradedInvertible,
            G, X.scalars, X.grading + (0,))
    _raises("expected 3 generator values and gradings, got 0 and 0", GradedInvertible,
            G, (), ())


# -- the per-character construction the reduced norms replace ------------------

def _ses_reference(theta, phi, section):
    """ses_iso with exactness decided by the ranks of the Wedderburn blocks."""
    G = theta.group
    r1, r2, r3 = theta.rows, theta.cols, phi.cols
    if phi.rows != r2 or section.rows != r3 or section.cols != r2:
        raise ValueError("shape mismatch in exact-sequence data")
    if r1 + r3 != r2:
        raise ValueError("rank additivity fails: not a short exact sequence")
    if any(not e.is_zero() for row in (theta * phi).entries for e in row):
        raise ValueError("phi after theta is nonzero: not a complex")
    if section * phi != GroupAlgebraMatrix.identity(G, r3):
        raise ValueError("section does not split phi")
    for chi, rep in enumerate(irreps(G)):
        if linalg.mat_rank(wedderburn_block(theta, chi)) != r1 * rep.degree:
            raise ValueError("theta is not injective on a component")
        if linalg.mat_rank(wedderburn_block(phi, chi)) != r3 * rep.degree:
            raise ValueError("phi is not surjective on a component")
    factor = nrd(GroupAlgebraMatrix.from_entries(G, theta.entries + section.entries))
    return SesIso(G, CentralElement(G, tuple(v.inverse() for v in factor.values)), r1, r3)


def _two_term_reference(theta, comparison, ker_section, cok_section):
    """two_term_nrd per character over the splitting field: the determinant
    of the map that is the comparison on a basis K of the left kernel of the
    block T and T on a basis L of the row space of the block of
    theta * ker_section, written in the standard basis."""
    G = theta.group
    if nrd(theta).has_zero_component():
        for s in (ker_section, cok_section):
            if theta * s * theta != theta:
                raise ValueError("section is not a generalized inverse of theta")
    values = []
    for chi in range(len(irreps(G))):
        T = wedderburn_block(theta, chi)
        K = linalg.left_kernel(T)
        L = linalg.row_basis(wedderburn_block(theta * ker_section, chi))
        KC = linalg.mat_mul(K, wedderburn_block(comparison, chi)) if K else []
        if K:
            cok_lift = linalg.left_kernel(wedderburn_block(cok_section * theta, chi))
            if linalg.mat_rank(KC) != len(K):
                raise ValueError("comparison is not injective on the kernel")
            if len(cok_lift) != len(K):
                raise ValueError("cokernel section has the wrong corank")
            if linalg.mat_rank(cok_lift + KC) != len(cok_lift):
                raise ValueError("comparison does not land in the cokernel complement")
        basis = K + L
        if len(basis) != len(T):
            raise ValueError("kernel and image complements do not fill the module")
        binv = linalg.mat_inverse(basis)
        if binv is None:
            raise ValueError("kernel complement meets the kernel")
        values.append(linalg.mat_det(linalg.mat_mul(binv, KC + linalg.mat_mul(L, T))))
    return CentralElement(G, tuple(values))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _diagonal(G, entries):
    zero = GroupAlgebraElement.zero(G)
    return GroupAlgebraMatrix.from_entries(
        G, [[x if i == j else zero for j in range(len(entries))]
            for i, x in enumerate(entries)])


_REFERENCE_GROUPS = ("C2", "C3", "S3", "D4", "Q8")


def test_two_term_agrees_with_the_per_character_construction():
    # theta = A D B with D diagonal over {1, sum g, 0}, and the sections
    # B^-1 D' A^-1 with D' a generalized inverse of D: sum g / |G|^2 at sum g,
    # anything at 0
    rng = random.Random(22)
    outcomes = set()
    for _ in range(60):
        G = group_from_catalog(rng.choice(_REFERENCE_GROUPS))
        n = rng.randrange(1, 3)
        one, zero = GroupAlgebraElement.one(G), GroupAlgebraElement.zero(G)
        norm = GroupAlgebraElement.from_coeffs(G, [1] * G.order)
        kinds = [rng.randrange(3) for _ in range(n)]
        D = _diagonal(G, [(one, norm, zero)[k] for k in kinds])
        A, B = rand_invertible(rng, G, n), rand_invertible(rng, G, n)

        def section():
            inner = _diagonal(G, [(one, norm * Fraction(1, G.order ** 2),
                                   rand_gam(rng, G, 1, 1, 1).entries[0][0])[k]
                                  for k in kinds])
            return gam_inverse(B) * inner * gam_inverse(A)

        theta, s1, s2 = A * D * B, section(), section()
        if rng.random() < 0.5:
            # lands in the cokernel complement, the row space of 1 - s2 theta
            C = rand_invertible(rng, G, n) * (GroupAlgebraMatrix.identity(G, n) - s2 * theta)
        else:
            C = rand_gam(rng, G, n, n, 1)
        want = _outcome(_two_term_reference, theta, C, s1, s2)
        assert _outcome(two_term_nrd, theta, C, s1, s2) == want
        outcomes.add(want if isinstance(want, str) else "value")
    assert outcomes == {"value", "comparison is not injective on the kernel",
                        "comparison does not land in the cokernel complement"}


def test_ses_agrees_with_the_rank_criterion():
    # theta = X W_top with X = A D B: injective exactly where X is invertible
    rng = random.Random(23)
    outcomes = set()
    for _ in range(60):
        G = group_from_catalog(rng.choice(_REFERENCE_GROUPS))
        r1, r3 = rng.randrange(1, 3), rng.randrange(1, 3)
        theta, phi, section = _random_split_sequence(rng, G, r1, r3)
        norm = GroupAlgebraElement.from_coeffs(G, [1] * G.order)
        D = _diagonal(G, [rng.choice([GroupAlgebraElement.one(G), norm,
                                      GroupAlgebraElement.zero(G)]) for _ in range(r1)])
        theta = rand_invertible(rng, G, r1) * D * rand_invertible(rng, G, r1) * theta
        section = section + rand_gam(rng, G, r3, r1) * theta
        want = _outcome(_ses_reference, theta, phi, section)
        assert _outcome(ses_iso, theta, phi, section) == want
        outcomes.add(want if isinstance(want, str) else "value")
    assert outcomes == {"value", "theta is not injective on a component"}
