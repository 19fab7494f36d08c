"""Complete irreducible matrix representations over Q(zeta_e) for the catalog groups.

Each catalog family carries a hardcoded model: cyclic groups and their
products via characters, dihedral groups via the rotation/reflection 2x2
matrices over Q(zeta_n), Q8 via its standard 2-dimensional model over
Q(zeta_4), and S3/S4/A4 via integral permutation-derived models (plus the
linear characters of the abelianization).  The ordered basis of each simple
module is the standard basis of E^deg in lexicographic order.

Construction verifies, exactly: the homomorphism property on all |G|^2
pairs, the dimension count sum(deg^2) = |G|, and character orthogonality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from grax.cyclotomic import CycloNum, cyclo_from_int
from grax.groups import FiniteGroup, perm_elements_of, perm_sign
from grax.linalg import mat_mul

Matrix = tuple[tuple[CycloNum, ...], ...]

_ZERO = CycloNum.from_rational(0)
_ONE = CycloNum.from_rational(1)


@dataclass(frozen=True)
class IrreducibleRep:
    """One irreducible model: rho(g) for each label and its character.

    Every catalog model is integral, so each rho(g) is also held as
    integers: images[g] lists, row by row, the power-basis coordinates of
    its entries at the conductor (the lcm of the entries' conductors, with
    rational entries at conductor 1), euler_phi(conductor) ints per entry.
    """

    group: FiniteGroup
    degree: int
    matrices: tuple[Matrix, ...]
    character: tuple[CycloNum, ...]
    conductor: int
    images: tuple[tuple[int, ...], ...]

    def __repr__(self):
        return f"IrreducibleRep({self.group.name}, degree={self.degree})"


def _identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def _from_ints(rows) -> Matrix:
    return tuple(tuple(CycloNum.from_rational(v) for v in row) for row in rows)


def _trace(m: Matrix) -> CycloNum:
    t = _ZERO
    for i in range(len(m)):
        t = t + m[i][i]
    return t


def _make_rep(G: FiniteGroup, mats: list[Matrix]) -> IrreducibleRep:
    # a rational entry goes to conductor 1, so it does not raise the conductor
    mats = [tuple(tuple(cyclo_from_int(e.n, e.num, e.den) for e in row) for row in m)
            for m in mats]
    deg = len(mats[0])
    for a in range(G.order):
        for b in range(G.order):
            if mat_mul(mats[a], mats[b]) != list(map(list, mats[G.mul(a, b)])):
                raise AssertionError(
                    f"{G.name}: representation fails homomorphism at ({a},{b})")
    if mats[0] != _identity(deg):
        raise AssertionError(f"{G.name}: identity is not represented by I")
    character = tuple(_trace(m) for m in mats)
    conductor = math.lcm(*(e.n for m in mats for row in m for e in row))
    images = []
    for m in mats:
        lifted = [e.lift(conductor) for row in m for e in row]
        if any(e.den != 1 for e in lifted):
            raise AssertionError(f"{G.name}: representation entries are not integral")
        images.append(tuple(c for e in lifted for c in e.num))
    return IrreducibleRep(G, deg, tuple(mats), character, conductor, tuple(images))


def _char_rep(G: FiniteGroup, values: list[CycloNum]) -> IrreducibleRep:
    return _make_rep(G, [((v,),) for v in values])


# -- family models ----------------------------------------------------------

def _cyclic_reps(G: FiniteGroup):
    n = G.params[0]
    out = []
    for j in range(n):
        out.append(_char_rep(G, [CycloNum.zeta(n, j * k) if n > 1 else _ONE
                                 for k in range(n)]))
    return out


def _product_reps(G: FiniteGroup):
    n1, n2 = G.params
    out = []
    for j1 in range(n1):
        for j2 in range(n2):
            vals = []
            for a in range(n1):
                for b in range(n2):
                    v = CycloNum.zeta(n1, j1 * a) if n1 > 1 else _ONE
                    w = CycloNum.zeta(n2, j2 * b) if n2 > 1 else _ONE
                    vals.append(v * w)
            out.append(_char_rep(G, vals))
    # trivial character first
    out.sort(key=lambda r: (0 if all(v == _ONE for v in r.character) else 1))
    return out


def _dihedral_reps(G: FiniteGroup):
    n = G.params[0]

    def lab(k, e):
        return k % n + n * (e % 2)

    out = []
    linear_signs = [(1, 1), (1, -1)] if n % 2 else [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for u, v in linear_signs:
        vals = [_ZERO] * (2 * n)
        for k in range(n):
            for e in range(2):
                vals[lab(k, e)] = CycloNum.from_rational((u ** (k % 2)) * (v ** e))
        out.append(_char_rep(G, vals))
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    for h in range(1, top + 1):
        mats: list[Matrix] = [None] * (2 * n)  # type: ignore[list-item]
        for k in range(n):
            zp = CycloNum.zeta(n, h * k)
            zm = CycloNum.zeta(n, -h * k)
            mats[lab(k, 0)] = ((zp, _ZERO), (_ZERO, zm))
            mats[lab(k, 1)] = ((_ZERO, zp), (zm, _ZERO))
        out.append(_make_rep(G, mats))
    return out


def _perm_matrix_deleted(p) -> Matrix:
    """Permutation action on the sum-zero sublattice in the basis e_i - e_(i+1)."""
    m = len(p)
    cols = []
    for j in range(m - 1):
        # image of f_j = e_j - e_(j+1) is e_(p(j)) - e_(p(j+1))
        vec = [0] * m
        vec[p[j]] += 1
        vec[p[j + 1]] -= 1
        # express as sum over f_i: e_a - e_b = f_a + ... + f_(b-1) for a < b
        col = [0] * (m - 1)
        a = next(i for i, v in enumerate(vec) if v)
        b = next(i for i in range(m - 1, -1, -1) if vec[i])
        sgn = vec[a]
        for i in range(a, b):
            col[i] = sgn
        cols.append(col)
    return _from_ints([[cols[j][i] for j in range(m - 1)] for i in range(m - 1)])


def _partition_action(p):
    """Image of a permutation of 4 points on the three pair-partitions."""
    partitions = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def norm(pr):
        pairs = sorted(tuple(sorted((p[a], p[b]))) for a, b in pr)
        return tuple(pairs)

    return tuple(partitions.index(norm(pr)) for pr in partitions)


def _sym4_reps(G: FiniteGroup):
    perms = perm_elements_of(G)
    triv = _char_rep(G, [_ONE] * 24)
    sign = _char_rep(G, [CycloNum.from_rational(perm_sign(p)) for p in perms])
    std = _make_rep(G, [_perm_matrix_deleted(p) for p in perms])
    std_sign = _make_rep(G, [
        tuple(tuple(e * perm_sign(p) for e in row) for row in _perm_matrix_deleted(p))
        for p in perms])
    two = _make_rep(G, [_perm_matrix_deleted(_partition_action(p)) for p in perms])
    return [triv, sign, two, std, std_sign]


def _sym3_reps(G: FiniteGroup):
    perms = perm_elements_of(G)
    triv = _char_rep(G, [_ONE] * 6)
    sign = _char_rep(G, [CycloNum.from_rational(perm_sign(p)) for p in perms])
    std = _make_rep(G, [_perm_matrix_deleted(p) for p in perms])
    return [triv, sign, std]


def _alt4_reps(G: FiniteGroup):
    perms = perm_elements_of(G)
    rotation = {(0, 1, 2): 0, (1, 2, 0): 1, (2, 0, 1): 2}
    out = [_char_rep(G, [_ONE] * 12)]
    for j in (1, 2):
        vals = [CycloNum.zeta(3, j * rotation[_partition_action(p)]) for p in perms]
        out.append(_char_rep(G, vals))
    out.append(_make_rep(G, [_perm_matrix_deleted(p) for p in perms]))
    return out


def _quaternion_reps(G: FiniteGroup):
    # labels: 0:1 1:-1 2:i 3:-i 4:j 5:-j 6:k 7:-k
    axis_of = ["1", "1", "i", "i", "j", "j", "k", "k"]
    out = []
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        val = {"1": 1, "i": (-1) ** a, "j": (-1) ** b, "k": (-1) ** (a + b)}
        out.append(_char_rep(G, [CycloNum.from_rational(val[axis_of[g]])
                                 for g in range(8)]))
    z = CycloNum.zeta(4)
    rho_i = ((z, _ZERO), (_ZERO, -z))
    rho_j = ((_ZERO, _ONE), (-_ONE, _ZERO))
    rho = {0: _identity(2),
           2: rho_i, 4: rho_j, 6: tuple(map(tuple, mat_mul(rho_i, rho_j)))}
    mats: list[Matrix] = [None] * 8  # type: ignore[list-item]
    for g in (0, 2, 4, 6):
        mats[g] = rho[g]
        mats[g + 1] = tuple(tuple(-e for e in row) for row in rho[g])
    out.append(_make_rep(G, mats))
    return out


@functools.lru_cache(maxsize=None)
def irreps(G: FiniteGroup) -> tuple[IrreducibleRep, ...]:
    """The complete list of irreducible representations, trivial character first."""
    builders = {"C": _cyclic_reps, "CxC": _product_reps, "D": _dihedral_reps,
                "Q": _quaternion_reps, "A": _alt4_reps}
    if G.family == "S":
        reps = _sym3_reps(G) if G.params[0] == 3 else _sym4_reps(G)
    else:
        reps = builders[G.family](G)
    reps = list(reps)
    reps.sort(key=lambda r: (0 if all(v == _ONE for v in r.character) else 1, r.degree))
    if sum(r.degree ** 2 for r in reps) != G.order:
        raise AssertionError(f"{G.name}: sum of squared degrees is not |G|")
    _check_orthogonality(G, reps)
    return tuple(reps)


def _check_orthogonality(G: FiniteGroup, reps):
    n = G.order
    for i, r in enumerate(reps):
        for j, s in enumerate(reps):
            acc = _ZERO
            for g in range(n):
                acc = acc + r.character[g] * s.character[G.inv(g)]
            expected = Fraction(n) if i == j else Fraction(0)
            if acc != CycloNum.from_rational(expected):
                raise AssertionError(f"{G.name}: character orthogonality fails ({i},{j})")


def central_idempotent(G: FiniteGroup, chi: IrreducibleRep | int):
    """The primitive central idempotent deg(chi)/|G| * sum chi(g) g^(-1).

    Returns the idempotent as a group-algebra element (cyclotomic
    coefficients indexed by group label).
    """
    from grax.algebra import GroupAlgebraElement

    rep = irreps(G)[chi] if isinstance(chi, int) else chi
    scale = Fraction(rep.degree, G.order)
    coeffs = [_ZERO] * G.order
    for g in range(G.order):
        coeffs[G.inv(g)] = rep.character[g] * scale
    return GroupAlgebraElement(G, tuple(coeffs))


def contragredient(rep: IrreducibleRep) -> IrreducibleRep:
    """The representation g -> transpose(rho(g^(-1)))."""
    G = rep.group
    mats = []
    for g in range(G.order):
        m = rep.matrices[G.inv(g)]
        mats.append(tuple(tuple(m[j][i] for j in range(rep.degree))
                          for i in range(rep.degree)))
    return _make_rep(G, mats)


@functools.lru_cache(maxsize=None)
def contragredient_permutation(G: FiniteGroup) -> tuple[int, ...]:
    """perm[i] = catalog index of the contragredient of the i-th irreducible."""
    reps = irreps(G)
    perm = []
    for r in reps:
        target = tuple(r.character[G.inv(g)] for g in range(G.order))
        perm.append(next(i for i, s in enumerate(reps) if s.character == target))
    return tuple(perm)


@functools.lru_cache(maxsize=None)
def galois_permutation(G: FiniteGroup, a: int) -> tuple[int, ...]:
    """perm[i] = index of the irreducible with character sigma_a(chi_i)."""
    reps = irreps(G)
    perm = []
    for r in reps:
        target = tuple(v.lift(_lcm_conductor(G)).galois(a) for v in r.character)
        lifted = [tuple(v.lift(_lcm_conductor(G)) for v in s.character) for s in reps]
        perm.append(next(i for i, ch in enumerate(lifted) if ch == target))
    return tuple(perm)


def _lcm_conductor(G: FiniteGroup) -> int:
    return G.exponent if G.exponent > 1 else 1
