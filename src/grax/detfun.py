"""Generator-level calculus of graded invertible modules over the Whitehead
order: determinants of free modules, tensor products with the graded swap
sign, short-exact-sequence isomorphisms, and reduced norms of assembled
two-term automorphisms.

Objects are a single generator (the top wedge of a basis, which per
character is one scalar) together with a per-character integer grading.
"""

from __future__ import annotations

from dataclasses import dataclass

from grax import linalg
from grax.algebra import (CentralElement, GroupAlgebraMatrix, gam_inverse, nrd,
                          reduced_rank, wedderburn_block)
from grax.cyclotomic import CycloNum
from grax.exterior import ExteriorElement, wedge_elements
from grax.fitting import CentralLattice
from grax.groups import FiniteGroup
from grax.reps import irreps

ONE = CycloNum.from_rational(1)


@dataclass(frozen=True)
class GradedInvertible:
    """An invertible module over the central order given by one generator,
    with a per-character grading."""

    group: FiniteGroup
    scalars: tuple[CycloNum, ...]
    grading: tuple[int, ...]
    wedge: ExteriorElement | None = None
    xi: CentralLattice | None = None

    def __post_init__(self):
        if any(s.is_zero() for s in self.scalars):
            raise ValueError("generator must be nonzero in every component")

    def generator_central(self) -> CentralElement:
        return CentralElement(self.group, self.scalars)


def unit_object(G: FiniteGroup, xi: CentralLattice | None = None) -> GradedInvertible:
    n = len(irreps(G))
    return GradedInvertible(G, (ONE,) * n, (0,) * n, None, xi)


def det_free(basis: GroupAlgebraMatrix, xi: CentralLattice | None = None) -> GradedInvertible:
    """Determinant object of a free module with the given basis rows: the
    lattice generated by the top wedge, graded by the reduced rank."""
    if basis.rows != basis.cols:
        raise ValueError("a basis of a free module must be square")
    G = basis.group
    w = wedge_elements(basis)
    scalars = tuple(comp[0] for comp in w.comps)
    if any(s.is_zero() for s in scalars):
        raise ValueError("the given rows are not a basis (singular component)")
    return GradedInvertible(G, scalars, reduced_rank(G, free_rank=basis.rows), w, xi)


def tensor(X: GradedInvertible, Y: GradedInvertible) -> GradedInvertible:
    if X.group is not Y.group:
        raise ValueError("group mismatch")
    return GradedInvertible(
        X.group,
        tuple(a * b for a, b in zip(X.scalars, Y.scalars)),
        tuple(a + b for a, b in zip(X.grading, Y.grading)),
        None, X.xi or Y.xi)


def inverse_object(X: GradedInvertible) -> GradedInvertible:
    return GradedInvertible(
        X.group, tuple(s.inverse() for s in X.scalars),
        tuple(-g for g in X.grading), None, X.xi)


def swap_sign(X: GradedInvertible, Y: GradedInvertible) -> CentralElement:
    """The commutativity-constraint sign (-1)^(grading_X * grading_Y), per character."""
    values = tuple(CycloNum.from_rational(-1 if (a * b) % 2 else 1)
                   for a, b in zip(X.grading, Y.grading))
    return CentralElement(X.group, values)


@dataclass(frozen=True)
class SesIso:
    """Generator-level isomorphism datum of a short exact sequence of free
    modules: the image of the top standard wedge of the middle term is
    factor times (top wedge of the sub) tensor (top wedge of the quotient)."""

    group: FiniteGroup
    factor: CentralElement
    sub_rank: int
    quot_rank: int


def ses_iso(theta: GroupAlgebraMatrix, phi: GroupAlgebraMatrix,
            section: GroupAlgebraMatrix) -> SesIso:
    """Isomorphism datum for free P1 -> P2 -> P3 with a chosen section.

    theta is r1 x r2 (rows = images of the P1 basis), phi is r2 x r3,
    section is r3 x r2 with section * phi = identity.  Exactness is
    verified on the split side; the factor is independent of the section.
    """
    G = theta.group
    r1, r2, r3 = theta.rows, theta.cols, phi.cols
    if phi.rows != r2 or section.rows != r3 or section.cols != r2:
        raise ValueError("shape mismatch in exact-sequence data")
    if r1 + r3 != r2:
        raise ValueError("rank additivity fails: not a short exact sequence")
    comp = theta * phi
    if not all(e.is_zero() for row in comp.entries for e in row):
        raise ValueError("phi after theta is nonzero: not a complex")
    if section * phi != GroupAlgebraMatrix.identity(G, r3):
        raise ValueError("section does not split phi")
    for chi, rep in enumerate(irreps(G)):
        c = rep.degree
        if linalg.mat_rank(wedderburn_block(theta, chi)) != r1 * c:
            raise ValueError("theta is not injective on a component")
        if linalg.mat_rank(wedderburn_block(phi, chi)) != r3 * c:
            raise ValueError("phi is not surjective on a component")
    assembled = GroupAlgebraMatrix.from_entries(
        G, [list(theta.entries[i]) for i in range(r1)]
           + [list(section.entries[i]) for i in range(r3)])
    factor = nrd(assembled)
    if factor.has_zero_component():
        raise ValueError("assembled basis is singular: sequence is not exact")
    inv_values = tuple(v.inverse() for v in factor.values)
    return SesIso(G, CentralElement(G, inv_values), r1, r3)


def ses_swap_sign(iso: SesIso) -> CentralElement:
    """The order-swap sign (-1)^(rr(P1) * rr(P3)) per character."""
    G = iso.group
    rr1 = reduced_rank(G, free_rank=iso.sub_rank)
    rr3 = reduced_rank(G, free_rank=iso.quot_rank)
    values = tuple(CycloNum.from_rational(-1 if (a * b) % 2 else 1)
                   for a, b in zip(rr1, rr3))
    return CentralElement(G, values)


def ses_retraction(theta: GroupAlgebraMatrix, section: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """The retraction P2 -> P1 determined by the section: the first block of
    the inverse of the assembled basis matrix."""
    G = theta.group
    r1, r2 = theta.rows, theta.cols
    assembled = GroupAlgebraMatrix.from_entries(
        G, [list(theta.entries[i]) for i in range(r1)]
           + [list(section.entries[i]) for i in range(section.rows)])
    inv = gam_inverse(assembled)
    if inv is None:
        raise ValueError("assembled basis is singular")
    return GroupAlgebraMatrix.from_entries(
        G, [[inv.entries[t][j] for j in range(r1)] for t in range(r2)])


def two_term_nrd(theta: GroupAlgebraMatrix,
                 comparison: GroupAlgebraMatrix | None = None,
                 ker_section: GroupAlgebraMatrix | None = None,
                 cok_section: GroupAlgebraMatrix | None = None) -> CentralElement:
    """Reduced norm of the automorphism assembled from a square map theta,
    splittings of its kernel and cokernel, and a comparison map carrying the
    split kernel onto the chosen cokernel complement.

    The sections are generalized inverses (theta * s * theta = theta);
    ker_section picks the complement of the kernel as the row space of
    theta * ker_section, cok_section picks the cokernel complement as the
    left kernel of cok_section * theta.  For invertible theta all three
    extra arguments are unnecessary and the result is nrd(theta).
    """
    if theta.rows != theta.cols:
        raise ValueError("two-term automorphism needs a square matrix")
    G = theta.group
    d = theta.rows
    reps = irreps(G)
    blocks_T = [wedderburn_block(theta, chi) for chi in range(len(reps))]
    kernels = [linalg.left_kernel(b) if b else [] for b in blocks_T]
    has_kernel = any(k for k in kernels)
    if not has_kernel:
        return nrd(theta)
    if comparison is None or ker_section is None or cok_section is None:
        raise ValueError("singular theta needs comparison and both sections")
    for s in (ker_section, cok_section):
        if theta * s * theta != theta:
            raise ValueError("section is not a generalized inverse of theta")
    values = []
    for chi, rep in enumerate(reps):
        n = d * rep.degree
        T = blocks_T[chi]
        K = kernels[chi]
        TS1 = wedderburn_block(theta * ker_section, chi)
        L = linalg.row_basis(TS1)
        Cmp = wedderburn_block(comparison, chi)
        S2T = wedderburn_block(cok_section * theta, chi)
        cok_lift = linalg.left_kernel(S2T) if S2T else []
        KC = linalg.mat_mul(K, Cmp) if K else []
        if K:
            if linalg.mat_rank(KC) != len(K):
                raise ValueError("comparison is not injective on the kernel")
            if len(cok_lift) != len(K):
                raise ValueError("cokernel section has the wrong corank")
            combined = [list(r) for r in cok_lift] + [list(r) for r in KC]
            if linalg.mat_rank(combined) != len(cok_lift):
                raise ValueError("comparison does not land in the cokernel complement")
        basis = [list(r) for r in K] + [list(r) for r in L]
        if len(basis) != n:
            raise ValueError("kernel and image complements do not fill the module")
        images = [list(r) for r in KC] + linalg.mat_mul(L, T)
        binv = linalg.mat_inverse(basis)
        if binv is None:
            raise ValueError("kernel complement meets the kernel")
        phi_mat = linalg.mat_mul(binv, images)
        values.append(linalg.mat_det(phi_mat))
    return CentralElement(G, tuple(values))
