"""Budgeted exact approximations of the Whitehead order, the denominator
ideal, and higher non-commutative Fitting invariants of matrices.

The Whitehead order of Z[G] is generated by reduced norms of all integral
matrices; that set is infinite, so xi_approx enumerates a budgeted family
and closes the resulting lattice under multiplication (products of reduced
norms are reduced norms of block-diagonal matrices, so every generator
remains genuine).  delta_check tests the denominator ideal on the same
monomial family.

Both take one reduced norm (xi) or one generalized adjoint (delta) per
orbit of their families under translation and conjugation by group
elements h and k:
    nrd(h y) = nrd(h) nrd(y),      [[h y]]* = nrd(h) y* h^-1,
    nrd(k y k^-1) = nrd(y),        (k y k^-1)* = k y* k^-1.
A 1x1 member is y = h k r k^-1, with h its first label and r a canonical
representative whose support holds the identity (_small_elements), and
the monomial matrices k R k^-1 share R's values, so both walk the first
grid of each conjugacy orbit (_monomial_walk); generators, verdicts and
witnesses are those of the members taken one by one.

All lattices live in the conjugacy-class-sum basis of
the rational center, as a Hermite-normal-form integer lattice together
with one common denominator; that pair is canonical, so lattice equality
is literal equality.

Central products (the xi closure, minors times xi in fit_matrix) are taken
in integer class coordinates over the group table (algebra.class_product)
and only between HNF basis rows: the product is Z-bilinear, so the span of
all products x*y depends only on the spans of the two factors, and the
lattice is the one the full generator lists would give.

For abelian groups the order is exactly the image of Z[G] and the minors
pool is complete by multilinearity, so on integral matrices fit_matrix
agrees with the classical Fitting ideal, which fit_classical_oracle
computes with no determinant routine in common: fit_matrix expands its
minors by cofactors, the oracle by Leibniz.  Each class of an abelian
group is one element, so the oracle reads its Leibniz coefficient vectors
as class coordinates; this module reads no character values.

A Fitting minor with a standard basis column b_i is reduced by Laplace
expansion before it is evaluated: it is zero unless its rows hold i, and
otherwise, at every character chi, nrd_chi(minor) = s^chi(1) nrd_chi(the
minor without row i and that column), with s the scalar Laplace sign.  So
fit_matrix evaluates only distinct, smaller, nonzero minors, each once
per call; the combination columns b_i + h*b_j stay columns, since their
blocks mix rows across the chi(1) copies (_replacement_pool).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          _adjoint_int, block_det, class_product, cleared_rows, int_block, nrd)
from grax.groups import FiniteGroup, perm_sign
from grax.lattices import IntLattice, hnf
from grax.reps import irreps


@dataclass(frozen=True)
class Budget:
    """Enumeration bounds for the budgeted ideal approximations."""

    max_matrix_size: int = 2
    coeff_height: int = 1
    support: int = 2
    rounds: int = 4
    max_candidates: int = 20000

    @staticmethod
    def from_dict(d: dict) -> "Budget":
        for k, v in d.items():
            if k not in Budget.__dataclass_fields__:
                raise ValueError(f"unknown budget key {k!r}")
            if type(v) is not int or v < 0:
                raise ValueError(f"budget value {k!r} must be a nonnegative integer, not {v!r}")
        return Budget(**d)


@dataclass(frozen=True)
class CentralLattice:
    """A finitely generated lattice of central elements, in canonical form.

    lattice holds integer vectors in the class-sum basis; the lattice of
    central elements is (1/denominator) times it.  provenance records how
    the generators arose; stable means one further enumeration round added
    nothing; exact marks the cases where the result is provably the whole
    ideal rather than an under-approximation.
    """

    group: FiniteGroup
    denominator: int
    lattice: IntLattice
    provenance: tuple[str, ...] = ()
    stable: bool = False
    exact: bool = False

    def contains(self, x: CentralElement) -> bool:
        """Whether the central element x, over the same group, lies in the
        lattice."""
        self._check_group(x.group, "an element")
        return self._holds(*x._coords_int())

    def contains_lattice(self, other: "CentralLattice") -> bool:
        """Whether every element of other, over the same group, lies in the
        lattice."""
        self._check_group(other.group, "a lattice")
        return all(self._holds(row, other.denominator) for row in other.lattice.basis)

    def _check_group(self, group: FiniteGroup, what: str):
        if group != self.group:
            raise ValueError(f"{what} over {group.name} tested against a lattice "
                             f"over {self.group.name}")

    def _holds(self, ints, den: int) -> bool:
        """Membership of the class coordinates ints / den: ints times
        denominator / den must be an integer vector of the HNF lattice."""
        scaled = [v * self.denominator for v in ints]
        if any(v % den for v in scaled):
            return False
        return self.lattice.contains([v // den for v in scaled])

    def elements(self) -> list[CentralElement]:
        """Central elements corresponding to the HNF basis rows."""
        return [CentralElement.from_coords(
                    self.group, [Fraction(v, self.denominator) for v in row])
                for row in self.lattice.basis]

    def __eq__(self, other):
        return (isinstance(other, CentralLattice)
                and self.group is other.group
                and self.denominator == other.denominator
                and self.lattice == other.lattice)


def _lattice_from_int_rows(G: FiniteGroup, rows, denom: int, provenance=(),
                           stable=False, exact=False) -> CentralLattice:
    """Canonical CentralLattice spanned by integer class-sum rows over one
    positive denominator."""
    lat = hnf(rows, len(G.conjugacy_classes))
    # minimal denominator: divide out any common factor shared with all entries
    g = math.gcd(denom, *(v for row in lat.basis for v in row))
    if g > 1:
        lat = IntLattice(lat.ambient_rank,
                         tuple(tuple(v // g for v in row) for row in lat.basis))
        denom //= g
    return CentralLattice(G, denom, lat, tuple(provenance), stable, exact)


def lattice_from_central(G: FiniteGroup, gens, provenance=(),
                         stable=False, exact=False) -> CentralLattice:
    """Canonical CentralLattice spanned over Z by the given central elements,
    read from their integer class coordinates over one common denominator
    (CentralElement._coords_int)."""
    cores = [g._coords_int() for g in gens]
    denom = math.lcm(1, *(den for _, den in cores))
    rows = [[v * (denom // den) for v in ints] for ints, den in cores]
    return _lattice_from_int_rows(G, rows, denom, provenance, stable, exact)


def _abelian_image_lattice(G: FiniteGroup) -> CentralLattice:
    # class coordinates of the image of g are its coefficient vector, so the
    # image of Z[G] is the full integer lattice
    rows = [[int(i == j) for j in range(G.order)] for i in range(G.order)]
    return _lattice_from_int_rows(G, rows, 1, ("image of Z[G]",), stable=True, exact=True)


def _small_elements(G: FiniteGroup, budget: Budget):
    """The 1x1 family, integral elements y with bounded support and height,
    in enumeration order, and its size before the candidate budget cut it.

    Each member is (pairs, h, r): y as (label, coefficient) pairs sorted by
    label, h its first label, and r the canonical conjugate of h^-1 y
    (_conjugacy_rep), whose support holds the identity; so y = h k r k^-1
    for some group element k.
    """
    table, inverse = G.mul_table, G.inverse
    out = []
    heights = [h for h in range(-budget.coeff_height, budget.coeff_height + 1) if h]
    total = sum(math.comb(G.order, size) * len(heights) ** size
                for size in range(1, budget.support + 1))
    for size in range(1, budget.support + 1):
        for supp in itertools.combinations(range(G.order), size):
            back = table[inverse[supp[0]]]
            moved = [back[g] for g in supp]
            for coeffs in itertools.product(heights, repeat=size):
                if len(out) >= budget.max_candidates:
                    return out, total
                out.append((tuple(zip(supp, coeffs)), supp[0],
                            _conjugacy_rep(G, tuple(zip(moved, coeffs)))))
    return out, total


def _conjugacy_rep(G: FiniteGroup, pairs) -> tuple:
    """The canonical conjugate of sparse (label, tag) pairs under g -> k g
    k^-1 with one k for every label: the least over k of the conjugated
    pairs, sorted.  With at most one label off the identity that is its
    class representative (the least label of the class), found directly;
    otherwise each k costs O(len(pairs))."""
    table, inverse = G.mul_table, G.inverse
    if sum(g != G.identity for g, _ in pairs) <= 1:
        return tuple(sorted((G.conjugacy_classes[G.class_of[g]][0], t) for g, t in pairs))
    return min(tuple(sorted((table[table[k][g]][inverse[k]], t) for g, t in pairs))
               for k in range(G.order))


def _grid_rep(G: FiniteGroup, grid) -> tuple:
    """The canonical conjugate k R k^-1 of a grid of group labels, as
    sorted (label, cell) pairs of its nonzero cells."""
    return _conjugacy_rep(G, tuple((g, (i, j)) for i, row in enumerate(grid)
                                   for j, g in enumerate(row) if g is not None))


def _element_matrix(G: FiniteGroup, pairs) -> GroupAlgebraMatrix:
    """The 1x1 matrix over Z[G] of an element given by (label, coefficient)
    pairs."""
    coeffs = [0] * G.order
    for g, c in pairs:
        coeffs[g] = c
    return GroupAlgebraMatrix.from_entries(G, [[GroupAlgebraElement.from_coeffs(G, coeffs)]])


def _distinct(values):
    """The index of each value among the distinct values, and the distinct
    values in order of first appearance (compared by ==: central elements
    do not hash)."""
    firsts, index = [], []
    for v in values:
        i = next((i for i, u in enumerate(firsts) if u == v), len(firsts))
        if i == len(firsts):
            firsts.append(v)
        index.append(i)
    return index, firsts


def _monomial_patterns(size: int):
    """Each zero pattern of a size x size matrix, as (forest, free): the
    nonzero cells on a spanning forest of the pattern's row-column
    bipartite graph, and the nonzero cells off it.

    Scaling the rows on the left and the columns on the right by group
    elements turns every monomial matrix with this pattern into one whose
    forest cells are 1: set the scale of each tree's root to 1 and
    propagate along the tree edges.  The cells off the forest stay free.
    """
    cells = [(i, j) for i in range(size) for j in range(size)]
    for mask in itertools.product((False, True), repeat=len(cells)):
        comp = list(range(2 * size))  # component of each row, then each column
        forest, free = [], []
        for (i, j), on in zip(cells, mask):
            if on:
                a, b = comp[i], comp[size + j]
                (free if a == b else forest).append((i, j))
                comp = [a if c == b else c for c in comp]
        yield forest, free


def _normalised_monomials(G: FiniteGroup, size: int):
    """Monomial size x size matrices that meet every orbit under row and
    column scaling by group elements, as grids of group labels (None for
    0).  An orbit may be met more than once: the free entry of the full 2x2
    pattern matters only up to conjugacy."""
    for forest, free in _monomial_patterns(size):
        for labels in itertools.product(range(G.order), repeat=len(free)):
            grid = [[None] * size for _ in range(size)]
            for i, j in forest:
                grid[i][j] = G.identity
            for (i, j), g in zip(free, labels):
                grid[i][j] = g
            yield grid


def _monomial_walk(G: FiniteGroup, size: int, budget: Budget):
    """The first grid of each conjugacy orbit k R k^-1 (_grid_rep) among the
    first max_candidates normalised monomials of the size, in enumeration
    order: xi and delta read one nrd or adjugate per orbit from it."""
    seen = set()
    for grid in itertools.islice(_normalised_monomials(G, size), budget.max_candidates):
        key = _grid_rep(G, grid)
        if key not in seen:
            seen.add(key)
            yield grid


def _monomial_matrix(G: FiniteGroup, grid) -> GroupAlgebraMatrix:
    """The matrix over Z[G] of a grid of group labels (None for 0)."""
    return GroupAlgebraMatrix.from_entries(
        G, [[GroupAlgebraElement.zero(G) if g is None else GroupAlgebraElement.basis(G, g)
             for g in row] for row in grid])


def _family_label(label: str, budget: Budget, space: int) -> str:
    """Provenance of an enumerated family of the given size; one cut by the
    candidate budget says how much of it was tried, min(max_candidates, space)."""
    tried = budget.max_candidates
    return label if tried >= space else f"{label} (truncated: {tried} of {space} tried)"


def xi_approx(G: FiniteGroup, budget: Budget = Budget()) -> CentralLattice:
    """Sound under-approximation of the Whitehead order of Z[G].

    Every generator is the reduced norm of an explicit integral matrix;
    the lattice is closed under multiplication by re-generation from its
    HNF basis until stable or out of rounds.  Monomial matrices are
    enumerated up to diagonal units: for D1, D2 diagonal with group-element
    entries, nrd(D1 R D2) = nrd(g) nrd(R) with g the product of those
    entries, so once every nrd(g) is a generator the first closing round
    recovers each monomial matrix from its normalised representative R.
    Abelian groups return the image of Z[G] exactly.

    Each reduced norm is computed once per orbit of the family under
    translation and conjugation by group elements: nrd(h y) = nrd(h) nrd(y)
    and nrd(k y k^-1) = nrd(y).  A 1x1 member y = h k r k^-1 contributes
    the product nrd(h) nrd(r), once for each distinct (nrd(h), r), and the
    monomial matrices k R k^-1 share nrd(R); the generators are exactly
    those of the members one by one.
    """
    if G.is_abelian():
        return _abelian_image_lattice(G)
    members, space = _small_elements(G, budget)
    prov = [_family_label(f"1x1 elements: support<={budget.support} "
                          f"height<={budget.coeff_height}", budget, space)]
    orbits = [(h, r) for _, h, r in members]
    if budget.max_matrix_size >= 2:
        # the representatives below stand for their orbits only with every nrd(g)
        present = {pairs for pairs, _, _ in members}
        missing = [g for g in range(G.order) if ((g, 1),) not in present]
        if missing:
            orbits += [(g, ((G.identity, 1),)) for g in missing]
            prov.append(f"1x1 group elements: {len(missing)}")
    norms = {}  # nrd of each 1x1 matrix met, by its pairs

    def norm(pairs):
        if pairs not in norms:
            norms[pairs] = nrd(_element_matrix(G, pairs))
        return norms[pairs]

    hs = sorted({h for h, _ in orbits})
    index, units = _distinct([norm(((h, 1),)) for h in hs])
    unit = dict(zip(hs, index))
    products = {}
    for h, r in orbits:
        if (unit[h], r) not in products:
            products[unit[h], r] = units[unit[h]] * norm(r)
    gens = list(products.values())
    for size in range(2, budget.max_matrix_size + 1):
        gens += [nrd(_monomial_matrix(G, grid)) for grid in _monomial_walk(G, size, budget)]
        space = sum(G.order ** len(free) for _, free in _monomial_patterns(size))
        prov.append(_family_label(f"{size}x{size} monomial matrices", budget, space))
    for x in gens:
        if not x.is_integral():
            raise AssertionError("Whitehead generator fails integrality")
    current = lattice_from_central(G, gens, prov)
    stable = False
    for _ in range(budget.rounds):
        # with b/D the basis elements, span the b/D and the products a*b/D^2
        # (the center is commutative, so each unordered pair once)
        D, basis = current.denominator, current.lattice.basis
        rows = [[D * v for v in b] for b in basis]
        rows += [class_product(G, a, b)
                 for a, b in itertools.combinations_with_replacement(basis, 2)]
        merged = _lattice_from_int_rows(G, rows, D * D, prov)
        if merged == current:
            stable = True
            break
        current = merged
    return CentralLattice(G, current.denominator, current.lattice,
                          tuple(prov), stable, False)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a budgeted decision procedure."""

    kind: str  # "certified-no" | "passed-budget" | "exact-yes"
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.kind != "certified-no"


def delta_check(x: CentralElement, G: FiniteGroup,
                budget: Budget = Budget()) -> Verdict:
    """Test membership of x in the denominator ideal, up to budget.

    certified-no returns a concrete integral matrix M with x * M* not
    integral.  For abelian G the question is decided exactly (the ideal is
    the whole ring, so membership is integrality of the descent).

    Monomial matrices are tested up to diagonal units, on xi_approx's
    family: for D1, D2 diagonal with group-element entries, block by block
    (D1 R D2)* = nrd(D1) nrd(D2) D2^-1 R* D1^-1 (both sides vanish where
    det R_chi = 0), and D1^-1, D2^-1 are monomial over Z[G], so x (D1 R D2)*
    is integral exactly when c_g R* is, for the twist c_g = x nrd(g) with g
    the product of the diagonal entries.  As [[g]]* = nrd(g) g^-1, the
    twists alone decide the 1x1 group elements.

    The 1x1 family is tested once per orbit under translation and
    conjugation: a member y = h k r k^-1 has x y* = k (c_h r*) k^-1 h^-1,
    by [[h y]]* = nrd(h) y* h^-1 and (k r k^-1)* = k r* k^-1, so it is
    integral exactly when c_h r* is.  Each distinct (c_h, r) is tested once,
    on one adjugate per r, and the monomial matrices k R k^-1 share R's
    adjugate.  Members are still walked in enumeration order, so the
    witness is the first failing member itself.

    Each test runs on integers: M* is an integer grid over one denominator
    (algebra._adjoint_int), each product c * e is taken over the group
    table, and it is integral when the denominator divides every entry.
    """
    if G.is_abelian():
        if x.to_group_algebra().is_integral():
            return Verdict("exact-yes")
        return Verdict("certified-no", GroupAlgebraMatrix.identity(G, 1))

    table = G.mul_table

    def integral(pairs, star) -> bool:
        # pairs: the nonzero (label, coefficient) pairs of an integral twist;
        # star = (grid, den) from _adjoint_int
        grid, den = star
        for row in grid:
            for e in row:
                out = [0] * G.order
                for g, a in pairs:
                    for k, b in zip(table[g], e):
                        out[k] += a * b
                if any(v % den for v in out):
                    return False
        return True

    cs = []
    for g in range(G.order):
        c = (x * nrd(_monomial_matrix(G, [[g]]))).to_group_algebra()
        if not c.is_integral():
            return Verdict("certified-no", _monomial_matrix(G, [[g]]))
        cs.append(c)
    twist_of, distinct = _distinct(cs)
    # (g, c_g) for each distinct twist, with its first g
    twists = [(twist_of.index(i), [(g, a) for g, a in enumerate(c.num) if a])
              for i, c in enumerate(distinct)]
    # x [[h k r k^-1]]* = k (c_h r*) k^-1 h^-1: one test per (c_h, r) and
    # one adjugate per r; the first failing member is the witness
    stars, passed = {}, set()
    for pairs, h, r in _small_elements(G, budget)[0]:
        if (twist_of[h], r) in passed:
            continue
        if r not in stars:
            stars[r] = _adjoint_int(_element_matrix(G, r))
        if not integral(twists[twist_of[h]][1], stars[r]):
            return Verdict("certified-no", _element_matrix(G, pairs))
        passed.add((twist_of[h], r))
    for size in range(2, budget.max_matrix_size + 1):
        # (k R k^-1)* = k R* k^-1: one adjugate per conjugacy orbit
        for grid in _monomial_walk(G, size, budget):
            star = _adjoint_int(_monomial_matrix(G, grid))
            for g, c in twists:
                if not integral(c, star):
                    # diag(g, 1, ..., 1) * R
                    top = [None if h is None else G.mul(g, h) for h in grid[0]]
                    return Verdict("certified-no", _monomial_matrix(G, [top, *grid[1:]]))
    return Verdict("passed-budget")


# -- Fitting invariants ------------------------------------------------------

def _replacement_pool(G: FiniteGroup, nrows: int, budget: Budget):
    """The combination columns of the replacement pool: b_i + h*b_j for
    i < j and 1 <= h <= coeff_height, when coeff_height >= 2.

    The rest of the pool, the standard basis columns b_i, is never built.
    A minor with rows R and b_i as column q is zero when i is not in R;
    otherwise Laplace expansion along that column gives, at every
    character chi, nrd_chi(minor) = s^chi(1) nrd_chi(the minor without row
    i and column q), s = (-1)^(r+q) with r the position of i in R: the
    column's block is e_r (x) I_c, c = chi(1) identity columns, each a
    Laplace step of sign s.  A combination column is not reduced: its block
    (e_i + h e_j) (x) I_c has two nonzero rows in each of its c columns, so
    the expansion mixes rows across the c copies and is no single smaller
    minor.

    Group translates g*b_i are omitted: their minors differ from the b_i
    minors by reduced-norm factors of group elements, which the closing
    multiplication against the Whitehead generators already supplies.
    """
    one = GroupAlgebraElement.one(G)
    zero = GroupAlgebraElement.zero(G)
    pool = []
    if budget.coeff_height >= 2:
        for i in range(nrows):
            for j in range(i + 1, nrows):
                for a in range(1, budget.coeff_height + 1):
                    col = [zero] * nrows
                    col[i] = one
                    col[j] = one * a
                    pool.append(tuple(col))
    return pool


def fit_matrix(M: GroupAlgebraMatrix, a: int,
               budget: Budget = Budget(),
               xi: CentralLattice | None = None) -> CentralLattice:
    """The a-th non-commutative Fitting invariant of a matrix, as a lattice.

    Enumerates reduced norms of all cols x cols minors of M with at most a
    columns replaced from the pool, multiplies by the Whitehead generators,
    and spans.  A basis column b_i is taken out by Laplace expansion
    (_replacement_pool): the minor is zero unless its rows hold i, and
    otherwise it is eps times the minor without row i and that column, eps
    the central unit with eps_chi = s^chi(1) for the scalar Laplace sign s.
    So only distinct, smaller, nonzero minors of [M | combination columns]
    are evaluated, each once per call, and each distinct (minor, sign)
    gives one generator (each distinct minor over abelian groups, where
    eps = s is in Z): zero and repeated generators do not change the
    span.  Over an abelian group the minors are taken in the group ring
    itself, by cofactor expansion with the sub-minors shared for the call
    (_cofactor_dets), and the order is the image of Z[G]: their Z-span is
    taken first, and only the |G| translates of its HNF basis are spanned
    again.  That is the ideal the minors generate: a Z-basis of the span
    and the minors are Z-combinations of each other, so their translates
    span one lattice, the Z[G]-span of the minors.

    Exact for a = 0 with square M and for integral M over an abelian
    group, where it is the classical Fitting ideal (fit_classical_oracle);
    a sound under-approximation otherwise.  xi must be a lattice over M's
    group.
    """
    if a < 0:
        raise ValueError("Fitting index must be nonnegative")
    if M.rows < M.cols:
        raise ValueError("matrix must have at least as many rows as columns")
    G = M.group
    if xi is not None and xi.group != G:
        raise ValueError(f"xi is a lattice over {xi.group.name}, not over {G.name}")
    abelian = G.is_abelian()
    if xi is None and not abelian:
        xi = xi_approx(G, budget)
    d_, d = M.rows, M.cols
    combos = _replacement_pool(G, d_, budget)
    # [M | combination columns]; the reduced minors take their rows and columns
    wide = [list(M.entries[i]) + [col[i] for col in combos] for i in range(d_)]
    # the minors of [M | pool] (each of d_ basis columns and the combinations)
    count = math.comb(d_, d) * sum(math.comb(d, t) * (d_ + len(combos)) ** t
                                   for t in range(min(a, d) + 1))
    exact = (abelian and M.is_integral()) or (a == 0 and d_ == d)
    cleared, dens = cleared_rows(wide)
    if abelian:
        # coefficient space: the class coordinates of a central group-ring
        # element are its coefficients, and multiplying by the order
        # generators (group elements) permutes them.  A sign is dropped, as
        # the Z-span of v holds -v, so each distinct minor is taken once:
        # its kept columns with any len(cols) rows, as the d_ - len(cols)
        # rows left hold distinct rows for its d - len(cols) basis columns.
        # The smaller minors go first: their pivots keep the HNF small.
        kept = dict.fromkeys(cols for cols, _ in _minor_columns(d_, d, len(combos), a))
        dets = _cofactor_dets(G, cleared, dens, [
            (rsub, cols) for cols in sorted(kept, key=len)
            for rsub in itertools.combinations(range(d_), len(cols))])
        denom = math.lcm(1, *(den for _, den in dets))
        span = hnf([[c * (denom // den) for c in vec] for vec, den in dets], G.order)
        # row g of the table is x -> g x, so the basis row v read through it
        # is the translate g^-1 v
        rows = [[vec[k] for k in t] for vec in span.basis for t in G.mul_table]
        prov = (f"Fit^{a} of {d_}x{d}: {count} minors x |G| translates",)
        return _lattice_from_int_rows(G, rows, denom, prov, stable=True, exact=exact)
    # each distinct reduced minor once, with the distinct signs it carries
    signs = {}
    for rsub, cols, s in _minor_selections(d_, d, len(combos), a):
        signs.setdefault((rsub, cols), set()).add(s)
    # each character's block of [M | combinations] once; a minor's block
    # selects its rows and columns, deg block rows and columns each
    reps = irreps(G)
    blocks = [int_block(cleared, rep) for rep in reps]
    nrds = []
    for (rsub, cols), ss in signs.items():
        values = []
        for rep, blk in zip(reps, blocks):
            c = rep.degree
            bcols = [v * c + j for v in cols for j in range(c)]
            values.append(block_det(rep, [[blk[u * c + i][x] for x in bcols]
                                          for u in rsub for i in range(c)],
                                    [dens[u] for u in rsub]))
        for s in ss:
            # eps_chi = s^chi(1): -1 only at the odd degrees when s = -1
            nrds.append(CentralElement(G, tuple(
                -v if s < 0 and rep.degree % 2 else v for rep, v in zip(reps, values))))
    # by bilinearity, products of the two HNF bases span all products
    span = lattice_from_central(G, nrds)
    rows = [class_product(G, u, y) for u in span.lattice.basis for y in xi.lattice.basis]
    prov = (f"Fit^{a} of {d_}x{d}: {count} minors x {xi.lattice.rank} order gens",)
    return _lattice_from_int_rows(G, rows, span.denominator * xi.denominator, prov,
                                  stable=xi.stable or xi.exact, exact=exact)


def _minor_columns(nrows: int, d: int, ncomb: int, a: int):
    """The columns of fit_matrix's minors after Laplace expansion along
    their basis columns, as (columns of [M | combinations], basis).

    A minor of [M | pool] takes column j of M or, for at most a of the j,
    pool column p: the basis column b_p for p < nrows, else combination
    column p - nrows (column d + p - nrows of [M | combinations]).  basis
    lists (j, p) for each basis column b_p, at position j, left to right;
    the columns kept are the others, one for each row left once
    _minor_selections takes out row p with each b_p.
    """
    for t in range(0, min(a, d) + 1):
        for col_subset in itertools.combinations(range(d), t):
            for replacement in itertools.product(range(nrows + ncomb), repeat=t):
                cols = list(range(d))
                basis = []  # (position in the minor, basis row), left to right
                for j, p in zip(col_subset, replacement):
                    if p < nrows:
                        basis.append((j, p))
                        cols[j] = None
                    else:
                        cols[j] = d + p - nrows
                yield tuple(v for v in cols if v is not None), basis


def _minor_selections(nrows: int, d: int, ncomb: int, a: int):
    """The nonzero minors of fit_matrix after Laplace expansion along their
    basis columns, as (rows of M, columns of [M | combinations], s).

    A minor takes d of the nrows rows and its columns (_minor_columns).
    Its basis columns are taken out from the left: b_i at position q among
    the columns left, with i at position r among the rows left, goes with
    row i and the sign (-1)^(r+q); with i not among the rows left (never
    selected, or b_i used twice) the minor is zero and skipped.  s is the
    product of the signs.
    """
    for kept, basis in _minor_columns(nrows, d, ncomb, a):
        for row_subset in itertools.combinations(range(nrows), d):
            rows, s = list(row_subset), 1
            for k, (j, i) in enumerate(basis):
                if i not in rows:
                    break
                r = rows.index(i)
                # k basis columns left of position j are gone already
                s *= (-1) ** (r + j - k)
                del rows[r]
            else:
                yield tuple(rows), kept, s


def _cofactor_dets(G: FiniteGroup, rows, dens, minors):
    """Minors of cleared rows over a commutative Z[G], one (integer
    coefficient vector, positive denominator) per (row tuple, column tuple)
    of minors, the denominator the product of its rows' dens.

    Each minor is expanded along its first row, the columns kept in the
    order given; the sub-minors are memoized on (rows, columns) for the
    call, so one shared by several minors is computed once."""
    table, one = G.mul_table, [0] * G.order
    one[G.identity] = 1
    memo = {((), ()): one}

    def det(rsub, cols):
        if (rsub, cols) not in memo:
            out, row, rest = [0] * G.order, rows[rsub[0]], rsub[1:]
            for k, j in enumerate(cols):
                entry = row[j]
                if not entry:
                    continue
                sub = det(rest, cols[:k] + cols[k + 1:])
                sign = -1 if k % 2 else 1
                for g, x in enumerate(sub):
                    if x:
                        tg, x = table[g], sign * x
                        for h, y in entry:
                            out[tg[h]] += x * y
            memo[rsub, cols] = out
        return memo[rsub, cols]

    return [(det(rsub, cols), math.prod(dens[u] for u in rsub)) for rsub, cols in minors]


def fit_classical_oracle(M: GroupAlgebraMatrix, a: int) -> CentralLattice:
    """Classical a-th Fitting ideal over an abelian group ring, computed as
    the ideal of (cols - a)-minors by direct Leibniz expansion.

    Its domain is an integral M, a presentation over Z[G]: there the minors
    with a columns replaced from the pool (fit_matrix) and the (cols -
    a)-minors span one ideal.  A matrix with a coefficient outside Z is
    refused (ValueError); for M = [[1, 0], [1/2, 1/2]] over C1 at a = 2 the
    first span 1/2 Z and the second Z.

    Shares no determinant routine with fit_matrix: determinants are
    computed by Leibniz expansion (_leibniz_int), where fit_matrix expands
    by cofactors (_cofactor_dets).  Over an abelian group each class is
    one element, so a minor's integer coefficient vector is its class
    coordinates and the ideal is spanned by its |G| translates, with no
    character values on the way.
    """
    G = M.group
    if not G.is_abelian():
        raise ValueError("the classical oracle applies to abelian groups only")
    if a < 0:
        raise ValueError("Fitting index must be nonnegative")
    if not M.is_integral():
        raise ValueError("the classical oracle applies to integral matrices only")
    k = M.cols - a
    if k <= 0:
        minors = [[int(h == G.identity) for h in range(G.order)]]
    else:
        # integral M: every minor has denominator 1
        minors = [_leibniz_int(G, [[M.entries[r][c] for c in col_subset]
                                   for r in row_subset])[0]
                  for row_subset in itertools.combinations(range(M.rows), k)
                  for col_subset in itertools.combinations(range(M.cols), k)]
    # g x has coefficient x_{g^-1 h} at h
    translates = [G.mul_table[g_inv] for g_inv in G.inverse]
    rows = [[vec[i] for i in t] for vec in minors for t in translates]
    return _lattice_from_int_rows(G, rows, 1, (f"classical {k}-minors",),
                                  stable=True, exact=True)


def leibniz_det(G: FiniteGroup, grid) -> GroupAlgebraElement:
    """Determinant of a square grid over a commutative group ring, by the
    Leibniz expansion."""
    return GroupAlgebraElement._reduced(G, *_leibniz_int(G, grid))


def _leibniz_int(G: FiniteGroup, grid):
    """leibniz_det as (integer coefficient vector, positive denominator).

    Each row is cleared of denominators once, and the expansion runs on
    integer vectors over the multiplication table; a permutation stops at
    its first zero entry."""
    table = G.mul_table
    rows, dens = cleared_rows(grid)
    den = math.prod(dens)
    acc = [0] * G.order
    for perm in itertools.permutations(range(len(grid))):
        term = [0] * G.order
        term[G.identity] = perm_sign(perm)
        for i, j in enumerate(perm):
            entry = rows[i][j]
            if not entry:
                break
            out = [0] * G.order
            for g, x in enumerate(term):
                if x:
                    tg = table[g]
                    for h, y in entry:
                        out[tg[h]] += x * y
            term = out
        else:
            acc = [x + y for x, y in zip(acc, term)]
    return acc, den


def fit_transpose(M: GroupAlgebraMatrix, a: int,
                  budget: Budget = Budget(),
                  xi: CentralLattice | None = None) -> CentralLattice:
    """Fitting invariant of the transpose presentation: fit of iota_#(M^tr).

    Requires square M so that the transposed matrix still has rows >= cols.
    """
    if M.rows != M.cols:
        raise ValueError("transpose Fitting invariants need a square matrix here")
    return fit_matrix(M.transpose().involute_entries(), a, budget, xi)


def hash_lattice(L: CentralLattice) -> CentralLattice:
    """Image of a central lattice under the # involution, which takes the
    sum of each class to the sum of the class of its inverses: a permutation
    of class coordinates."""
    G = L.group
    inv = [G.class_of[G.inv(cls[0])] for cls in G.conjugacy_classes]
    return _lattice_from_int_rows(G, [[row[j] for j in inv] for row in L.lattice.basis],
                                  L.denominator, L.provenance + ("#",), L.stable, L.exact)


# -- annihilation ------------------------------------------------------------

def regular_int_rows(M: GroupAlgebraMatrix):
    """Integer matrix of x -> x*M from Z[G]^rows to Z[G]^cols in the group
    basis: row (slot t, label g) is the image of g in slot t, and column
    j*|G| + k is the coefficient of label k in slot j."""
    G, n = M.group, M.group.order
    if not M.is_integral():
        raise ValueError("integral matrix required")
    rows = []
    for entries in M.entries:
        for g in range(n):
            vec = [0] * (M.cols * n)
            for j, e in enumerate(entries):
                for h, c in enumerate(e.num):
                    if c:
                        vec[j * n + G.mul(g, h)] += c
            rows.append(vec)
    return rows


def annihilation_check(M: GroupAlgebraMatrix, x: CentralElement) -> bool:
    """Whether x * nrd(M) annihilates the cokernel of x -> x*M on Z[G]^d.

    Preconditions: every component of nrd(M) is nonzero (finite cokernel)
    and x * nrd(M) descends to an integral group-algebra element.
    """
    if M.rows != M.cols:
        raise ValueError("annihilation check needs a square matrix")
    if not M.is_integral():
        raise ValueError("annihilation check needs an integral matrix")
    G = M.group
    n = nrd(M)
    if n.has_zero_component():
        raise ValueError("reduced norm has a zero component: infinite cokernel")
    y = (x * n).to_group_algebra()
    if not y.is_integral():
        raise ValueError("x * nrd(M) is not integral")
    # The image of x -> x*M has index D = |det| = |prod_chi nrd_chi(M)^chi(1)|,
    # so it holds D*Z^N and its HNF runs modulo D from the start.
    D = abs(int(math.prod(v ** r.degree for r, v in zip(irreps(G), n.values)).as_rational()))
    size = M.rows * G.order
    image = hnf(regular_int_rows(M), size, _index=D)
    if math.prod(row[i] for i, row in enumerate(image.basis)) != D:
        raise AssertionError("the image index is not |det| of the regular representation")
    # each target h * y e_j is a row of the regular representation of y I
    return all(image.contains(t)
               for t in regular_int_rows(GroupAlgebraMatrix.identity(G, M.rows) * y))
