"""Reduced exterior powers of free modules over Q[G], their duality pairing,
coordinate splitting, Rubin-lattice membership, and the canonical kernel
element of a presentation matrix.

Per character chi of degree c, an element of A^k splits into c row slices
of length k*c: the slices of row u of a matrix M are rows u*c .. u*c+c-1 of
its Wedderburn block, and the slices of a hom are the same rows of the block
over the opposite algebra, each c x c sub-block transposed in place
(wedge_homs).  Both read the integer block of the cleared rows (int_block).
Wedges live in the exterior algebra of E^(k*c) with the lexicographic basis
indexed by ascending subsets: coordinate s of the wedge of r elements is the
maximal minor of their block on the columns s, one Bareiss determinant
(block_det, as in nrd).  The slice order is fixed once and for all:
element index major, slice index minor.  With that order the full pairing
of r hom-slices against r element-slices equals the reduced norm of the
Gram matrix over the opposite algebra, which is the anchor identity every
other convention here is checked against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix, block_det,
                          cleared_rows, gam_inverse, int_block)
from grax.cyclotomic import CycloNum, cyclo_from_int, det_adj_int, rank_int
from grax.fitting import CentralLattice, Verdict, regular_int_rows
from grax.groups import FiniteGroup
from grax.lattices import hnf
from grax.reps import irreps

ZERO = CycloNum.from_rational(0)

# hom tuples rubin_membership pairs against before it stops with passed-budget
RUBIN_TUPLES = 2000


@functools.lru_cache(maxsize=None)
def _subsets(n: int, r: int):
    return tuple(itertools.combinations(range(n), r))


@functools.lru_cache(maxsize=None)
def _subset_index(n: int, r: int):
    return {s: i for i, s in enumerate(_subsets(n, r))}


def _contract(coords, degree: int, n: int, f):
    """coords of iota_f(x): contraction by the functional vector f."""
    out = [ZERO] * len(_subsets(n, degree - 1))
    idx_small = _subset_index(n, degree - 1)
    for i, s in enumerate(_subsets(n, degree)):
        x = coords[i]
        if x.is_zero():
            continue
        sign = 1
        for pos, p in enumerate(s):
            fp = f[p]
            if not fp.is_zero():
                j = idx_small[s[:pos] + s[pos + 1:]]
                term = fp * x
                out[j] = out[j] + (term if sign > 0 else -term)
            sign = -sign
    return out


@dataclass(frozen=True)
class ExteriorElement:
    """A chi-indexed coordinate vector in the wedge powers of the split module."""

    group: FiniteGroup
    rank: int
    degree: int
    comps: tuple[tuple[CycloNum, ...], ...]

    def __post_init__(self):
        reps = irreps(self.group)
        if len(self.comps) != len(reps):
            raise ValueError(f"expected {len(reps)} wedge components, got {len(self.comps)}")
        for rep, comp in zip(reps, self.comps):
            expect = len(_subsets(self.rank * rep.degree, self.degree * rep.degree))
            if len(comp) != expect:
                raise ValueError("wedge coordinate length mismatch")

    def is_zero(self) -> bool:
        return all(v.is_zero() for comp in self.comps for v in comp)

    def component_is_zero(self, chi: int) -> bool:
        return all(v.is_zero() for v in self.comps[chi])

    def scale(self, x) -> "ExteriorElement":
        if isinstance(x, CentralElement):
            factors = x.values
        else:
            factors = [CycloNum.from_rational(x)] * len(self.comps)
        return ExteriorElement(
            self.group, self.rank, self.degree,
            tuple(tuple(f * v for v in comp) for f, comp in zip(factors, self.comps)))

    def __add__(self, other):
        if (other.group is not self.group or other.rank != self.rank
                or other.degree != self.degree):
            raise ValueError("wedge shape mismatch")
        return ExteriorElement(
            self.group, self.rank, self.degree,
            tuple(tuple(a + b for a, b in zip(c1, c2))
                  for c1, c2 in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, ExteriorElement) and self.group is other.group
                and self.rank == other.rank and self.degree == other.degree
                and all(a == b for c1, c2 in zip(self.comps, other.comps)
                        for a, b in zip(c1, c2)))


@dataclass(frozen=True)
class HomWedge:
    """A decomposable wedge of homs, kept with its ordered slice factors."""

    group: FiniteGroup
    rank: int
    degree: int
    factors: tuple[tuple[tuple[CycloNum, ...], ...], ...]  # per chi, list of dual vectors


def wedge_elements(M: GroupAlgebraMatrix) -> ExteriorElement:
    """Wedge of the rows of M (r elements of A^k, r <= k), in the fixed order:
    at each character, coordinate s is the maximal minor det(B[:, s]) of the
    block B, taken on the cleared integer block (block_det)."""
    G = M.group
    r, k = M.rows, M.cols
    if r > k:
        raise ValueError("cannot wedge more elements than the ambient rank")
    rows, dens = cleared_rows(M.entries)
    comps = []
    for rep in irreps(G):
        blk = int_block(rows, rep)
        comps.append(tuple(block_det(rep, [[row[j] for j in s] for row in blk], dens)
                           for s in _subsets(k * rep.degree, r * rep.degree)))
    return ExteriorElement(G, k, r, tuple(comps))


def wedge_homs(M: GroupAlgebraMatrix) -> HomWedge:
    """Wedge of s homs A^k -> A, row i giving the values of hom i on the basis.

    An empty matrix gives the identity contraction (degree zero)."""
    G = M.group
    s, k = M.rows, M.cols
    if s > k:
        raise ValueError("cannot wedge more homs than the ambient rank")
    rows, dens = cleared_rows(M.entries)
    factors = []
    for rep in irreps(G):
        # the block over the opposite algebra
        c, n, blk = rep.degree, rep.conductor, int_block(rows, rep)
        factors.append(tuple(
            tuple(cyclo_from_int(n, blk[U - U % c + V % c][V - V % c + U % c], dens[U // c])
                  for V in range(k * c)) for U in range(s * c)))
    return HomWedge(G, k, s, tuple(factors))


def pair(hw: HomWedge, xe: ExteriorElement):
    """Duality pairing: contract xe by the slice factors of hw, first factor first.

    Returns an ExteriorElement of degree r - s, identified with a
    CentralElement when r = s.
    """
    if hw.group is not xe.group or hw.rank != xe.rank:
        raise ValueError("pairing requires matching group and ambient rank")
    if hw.degree > xe.degree:
        raise ValueError("hom degree exceeds element degree")
    reps = irreps(xe.group)
    comps = []
    for rep, fs, coords in zip(reps, hw.factors, xe.comps):
        n = xe.rank * rep.degree
        cur = list(coords)
        deg = xe.degree * rep.degree
        for f in fs:
            cur = _contract(cur, deg, n, f)
            deg -= 1
        comps.append(tuple(cur))
    if hw.degree == xe.degree:
        return CentralElement(xe.group, tuple(c[0] for c in comps))
    return ExteriorElement(xe.group, xe.rank, xe.degree - hw.degree, tuple(comps))


def _sub_rows(M: GroupAlgebraMatrix, indices) -> GroupAlgebraMatrix:
    """Rows i of M for i in indices, keeping the width of M (0 x cols when
    there are none)."""
    return GroupAlgebraMatrix(M.group, len(indices), M.cols,
                              tuple(M.entries[i] for i in indices))


def standard_basis_matrix(G: FiniteGroup, k: int, indices) -> GroupAlgebraMatrix:
    """Rows b_i of A^k for i in indices (possibly none)."""
    return _sub_rows(GroupAlgebraMatrix.identity(G, k), tuple(indices))


def theta_b(xe: ExteriorElement,
            inverse: GroupAlgebraMatrix | None = None) -> dict[tuple[int, ...], CentralElement]:
    """Coordinates of xe along the dual-basis hom wedges, indexed by ascending
    degree-subsets of a free basis of A^d.  inverse is the inverse of the
    basis matrix (rows b_i), so that its columns are the dual homs b_i^*;
    the default is the standard basis, its own inverse."""
    d, r = xe.rank, xe.degree
    duals = (GroupAlgebraMatrix.identity(xe.group, d) if inverse is None else inverse).transpose()
    return {sigma: pair(wedge_homs(_sub_rows(duals, sigma)), xe)
            for sigma in itertools.combinations(range(d), r)}


def theta_b_section(G: FiniteGroup, d: int, r: int,
                    coeffs: dict[tuple[int, ...], CentralElement],
                    basis: GroupAlgebraMatrix | None = None) -> ExteriorElement:
    """The splitting: sum of c_sigma times the wedge of the sigma rows of the
    free basis (default the standard basis of A^d)."""
    basis = GroupAlgebraMatrix.identity(G, d) if basis is None else basis
    total = None
    for sigma in itertools.combinations(range(d), r):
        c = coeffs.get(tuple(sigma))
        if c is None:
            continue
        term = wedge_elements(_sub_rows(basis, sigma)).scale(c)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("empty coefficient map")
    return total


def theta_b_bijective(G: FiniteGroup, d: int, r: int) -> bool:
    """Dimension criterion: the splitting map is bijective iff the split-side
    and coordinate-side dimensions agree at every character."""
    for rep in irreps(G):
        c = rep.degree
        if len(_subsets(d * c, r * c)) != len(_subsets(d, r)):
            return False
    return True


def epsilon_from_matrix(M: GroupAlgebraMatrix) -> ExteriorElement:
    """The canonical kernel element of a d' x d presentation matrix (d' > d).

    Contracts the top wedge of the standard basis by the d coordinate homs
    of x -> x*M and fixes the per-character sign so that pairing against
    the hom tuple of any M' equals nrd of the block matrix (M' | M).  The
    result lies in the wedge power of the split kernel; that containment
    is asserted exactly.
    """
    G = M.group
    d_, d = M.rows, M.cols
    if d_ <= d:
        raise ValueError("kernel element needs strictly more rows than columns")
    r = d_ - d
    top = wedge_elements(standard_basis_matrix(G, d_, range(d_)))
    hw = wedge_homs(M.transpose())
    raw = pair(hw, top)
    reps = irreps(G)
    signed = []
    for rep, comp in zip(reps, raw.comps):
        if (r * d * rep.degree) % 2:
            signed.append(tuple(-v for v in comp))
        else:
            signed.append(comp)
    eps = ExteriorElement(G, d_, r, tuple(signed))
    _assert_in_kernel_wedge(hw, eps)
    return eps


def _assert_in_kernel_wedge(hw: HomWedge, eps: ExteriorElement):
    # eps lies in the wedge of ker iff contraction by every functional in the
    # row space of the split map kills it; those functionals are exactly the
    # slices of the coordinate homs.
    for rep, fs, comp in zip(irreps(eps.group), hw.factors, eps.comps):
        n = eps.rank * rep.degree
        deg = eps.degree * rep.degree
        for f in fs:
            if any(not v.is_zero() for v in _contract(list(comp), deg, n, f)):
                raise AssertionError(
                    "kernel element escapes the kernel wedge; convention bug")


def epsilon_vanishing(M: GroupAlgebraMatrix, eps: ExteriorElement | None = None):
    """Per-character comparison: the component of the kernel element is nonzero
    exactly when the split kernel has the generic dimension r * deg(chi)."""
    G = M.group
    if eps is None:
        eps = epsilon_from_matrix(M)
    r = M.rows - M.cols
    rows = cleared_rows(M.entries)[0]
    out = []
    for chi, rep in enumerate(irreps(G)):
        ker_dim = M.rows * rep.degree - rank_int(int_block(rows, rep), rep.conductor)
        out.append((not eps.component_is_zero(chi), ker_dim == r * rep.degree))
    return out


# -- Rubin lattice membership -------------------------------------------------

def _dual_homs(G: FiniteGroup, lattice) -> GroupAlgebraMatrix:
    """Z-module generators of Hom(M, Z[G]) as homs on A^k, via the dual basis,
    one per row.

    rubin_membership passes a lattice of full rank, so its HNF basis B is
    invertible, and B^-1 = adj(B) / det(B) comes from one integer
    elimination (det_adj_int)."""
    n = G.order
    k = lattice.ambient_rank // n
    (det,), adj = det_adj_int([[[v] for v in row] for row in lattice.basis], 1)
    # row i is f_i = column i of the inverse, as a functional on Z^(k|G|)
    return GroupAlgebraMatrix.from_entries(G, [
        [GroupAlgebraElement._reduced(G, [adj[t * n + G.inv(h)][i][0] for h in range(n)], det)
         for t in range(k)]
        for i in range(lattice.ambient_rank)])


def rubin_membership(xe: ExteriorElement, gens: GroupAlgebraMatrix,
                     xi: CentralLattice) -> Verdict:
    """Decide membership of xe in the Rubin lattice of the module spanned by
    the generator rows, relative to the given order lattice xi.

    exact-yes and certified-no are exact whenever xi is exact (always for
    abelian groups); for a budgeted under-approximate xi, certified-no is a
    verdict relative to xi and passed-budget reports no violation found.
    """
    G = xe.group
    k = xe.rank
    if gens.cols != k:
        raise ValueError("generator width must match the ambient rank")
    # Z-basis rows of the Z[G]-span of the generator rows inside Z^(k|G|)
    lattice = hnf(regular_int_rows(gens), k * G.order)
    if lattice.rank != k * G.order:
        raise ValueError("degenerate lattice: generators do not span A^k")
    r = xe.degree

    # Free-basis fast path: k generator rows forming a Z[G]-basis.
    if gens.rows == k:
        W_inv = gam_inverse(gens)
        if W_inv is not None:
            coords = theta_b(xe, W_inv)
            matches = theta_b_section(G, k, r, coords, gens) == xe if coords else xe.is_zero()
            inside = all(xi.contains(c) for c in coords.values())
            if matches and inside:
                return Verdict("exact-yes")
            if not inside and (G.is_abelian() or r == k):
                # here the coordinate map is bijective, so a coordinate
                # outside the order certifies non-membership
                bad = next(s for s, c in coords.items() if not xi.contains(c))
                return Verdict("certified-no", ("dual-basis homs", bad))

    duals = _dual_homs(G, lattice)
    checked = 0
    full = True
    for combo in itertools.combinations(range(duals.rows), r):
        if checked >= RUBIN_TUPLES:
            full = False
            break
        value = pair(wedge_homs(_sub_rows(duals, combo)), xe)
        if not xi.contains(value):
            return Verdict("certified-no", ("dual generators", combo))
        checked += 1
    if full and G.is_abelian():
        return Verdict("exact-yes")
    return Verdict("passed-budget")
