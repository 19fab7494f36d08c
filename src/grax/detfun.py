"""Generator-level calculus of graded invertible modules over the Whitehead
order: determinants of free modules, tensor products with the graded swap
sign, short-exact-sequence isomorphisms, and reduced norms of assembled
two-term automorphisms.

Objects are a single generator (for a free module, the reduced norm of a
basis: one scalar per character) together with a per-character integer
grading.  Every value here is a reduced norm of one group-ring matrix,
taken on the integer blocks of `nrd`: the exact-sequence factor of
[theta; section], and the two-term value of theta + (1 - theta s) c.
`two_term_nrd` checks its data on the same integer blocks (`rank_int`).
"""

from __future__ import annotations

from dataclasses import dataclass

from grax.algebra import (CentralElement, GroupAlgebraMatrix, cleared_rows, gam_inverse,
                          int_block, nrd, reduced_rank)
from grax.cyclotomic import CycloNum, rank_int
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

    def __post_init__(self):
        if not len(self.scalars) == len(self.grading) == len(irreps(self.group)):
            raise ValueError(f"expected {len(irreps(self.group))} generator values and gradings, "
                             f"got {len(self.scalars)} and {len(self.grading)}")
        if any(s.is_zero() for s in self.scalars):
            raise ValueError("generator must be nonzero in every component")

    def generator_central(self) -> CentralElement:
        return CentralElement(self.group, self.scalars)


def unit_object(G: FiniteGroup) -> GradedInvertible:
    n = len(irreps(G))
    return GradedInvertible(G, (ONE,) * n, (0,) * n)


def det_free(basis: GroupAlgebraMatrix) -> GradedInvertible:
    """Determinant object of a free module with the given basis rows: the
    top reduced exterior power is free of rank one over the centre, and its
    generator is the reduced norm of the basis, graded by the reduced rank."""
    gen = nrd(basis)
    if gen.has_zero_component():
        raise ValueError("the given rows are not a basis (singular component)")
    return GradedInvertible(basis.group, gen.values,
                            reduced_rank(basis.group, free_rank=basis.rows))


def tensor(X: GradedInvertible, Y: GradedInvertible) -> GradedInvertible:
    if X.group is not Y.group:
        raise ValueError("group mismatch")
    return GradedInvertible(
        X.group,
        tuple(a * b for a, b in zip(X.scalars, Y.scalars)),
        tuple(a + b for a, b in zip(X.grading, Y.grading)))


def inverse_object(X: GradedInvertible) -> GradedInvertible:
    return GradedInvertible(
        X.group, tuple(s.inverse() for s in X.scalars),
        tuple(-g for g in X.grading))


def _graded_sign(G: FiniteGroup, a_grading, b_grading) -> CentralElement:
    """The sign (-1)^(a * b) per character."""
    return CentralElement(G, tuple(CycloNum.from_rational(-1 if (a * b) % 2 else 1)
                                   for a, b in zip(a_grading, b_grading)))


def swap_sign(X: GradedInvertible, Y: GradedInvertible) -> CentralElement:
    """The commutativity-constraint sign (-1)^(grading_X * grading_Y), per character."""
    return _graded_sign(X.group, X.grading, Y.grading)


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
    section is r3 x r2 with section * phi = identity.  The factor is the
    inverse of nrd([theta; section]) and is independent of the section.
    With theta * phi = 0 and section * phi = 1, a row (a, b) killed by
    [theta; section] has b = (a theta + b section) phi = 0 and then
    a theta = 0, so the assembled matrix is invertible exactly where theta
    is injective, and with rank additivity the sequence is then exact:
    its reduced norm decides exactness at every component.
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
    factor = nrd(GroupAlgebraMatrix.from_entries(G, theta.entries + section.entries))
    if factor.has_zero_component():
        raise ValueError("theta is not injective on a component")
    inv_values = tuple(v.inverse() for v in factor.values)
    return SesIso(G, CentralElement(G, inv_values), r1, r3)


def ses_swap_sign(iso: SesIso) -> CentralElement:
    """The order-swap sign (-1)^(rr(P1) * rr(P3)) per character."""
    G = iso.group
    return _graded_sign(G, reduced_rank(G, free_rank=iso.sub_rank),
                        reduced_rank(G, free_rank=iso.quot_rank))


def ses_retraction(theta: GroupAlgebraMatrix, section: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    """The retraction P2 -> P1 determined by the section: the first block of
    the inverse of the assembled basis matrix."""
    G = theta.group
    r1, r2 = theta.rows, theta.cols
    inv = gam_inverse(GroupAlgebraMatrix.from_entries(G, theta.entries + section.entries))
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

    The sections are generalized inverses (theta * s * theta = theta), so
    E = theta * ker_section is idempotent with the kernel of theta as its
    left kernel: the complement of the kernel is the row space of E, and
    P = 1 - E projects onto the kernel along it.  cok_section picks the
    cokernel complement as the left kernel of cok_section * theta.  The
    automorphism is the comparison on the kernel and theta on its
    complement, P c + E theta = theta + (1 - theta * ker_section) c, and the
    result is its reduced norm.  For invertible theta all three extra
    arguments are unnecessary and the result is nrd(theta).
    """
    if theta.rows != theta.cols:
        raise ValueError("two-term automorphism needs a square matrix")
    value = nrd(theta)
    if not value.has_zero_component():
        return value
    if comparison is None or ker_section is None or cok_section is None:
        raise ValueError("singular theta needs comparison and both sections")
    for s in (ker_section, cok_section):
        if theta * s * theta != theta:
            raise ValueError("section is not a generalized inverse of theta")
    G = theta.group
    P = GroupAlgebraMatrix.identity(G, theta.rows) - theta * ker_section
    PC = P * comparison
    # a positive denominator per row changes no rank and no zero test
    pc, p, landed = (cleared_rows(M.entries)[0] for M in (PC, P, PC * cok_section * theta))
    for rep in irreps(G):
        n = rep.conductor
        if rank_int(int_block(pc, rep), n) != rank_int(int_block(p, rep), n):
            raise ValueError("comparison is not injective on the kernel")
        if any(any(v) for row in int_block(landed, rep) for v in row):
            raise ValueError("comparison does not land in the cokernel complement")
    return nrd(theta + PC)
