"""Complete irreducible matrix representations over Q(zeta_e) for the catalog groups.

Each catalog family carries a hardcoded model: cyclic groups and their
products via characters, dihedral groups via the rotation/reflection 2x2
matrices over Q(zeta_n), Q8 via its standard 2-dimensional model over
Q(zeta_4), and S3/S4/A4 via integral permutation-derived models (plus the
linear characters of the abelianization).  The ordered basis of each simple
module is the standard basis of E^deg in lexicographic order.

Every catalog model is integral, so each representation is held once, on
integers (IrreducibleRep.images), with its character.  Construction checks
exactly what the proof needs (Serre, Linear Representations of Finite
Groups, 2.3 Thm 5 and 2.4 Cor 2):
- rho(1) = I and rho(a) rho(s) = rho(as) for every label a and each s in
  a generating set, on the integer images; every element is a word in the
  generators, so rho is a homomorphism;
- <chi, chi> = |G| for each character, so each model is irreducible;
- the characters are pairwise distinct, so no two models are isomorphic;
- sum(deg^2) = |G|, so the list is complete.
Galois conjugation permutes the characters by the power map,
sigma_a(chi)(g) = chi(g^a) (galois_permutation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from grax.cyclotomic import CycloNum, _mul_int, cyclo_from_int
from grax.groups import FiniteGroup, perm_elements_of, perm_sign

Matrix = tuple[tuple[CycloNum, ...], ...]

_ZERO = CycloNum.from_rational(0)
_ONE = CycloNum.from_rational(1)


@dataclass(frozen=True)
class IrreducibleRep:
    """One irreducible model, verified at construction (see the module
    docstring).  images[g] lists rho(g) row by row, each entry as its
    power-basis coordinates at the conductor (the lcm of the entries'
    conductors, with rational entries at conductor 1), euler_phi(conductor)
    ints per entry; character[g] is the trace of rho(g).
    """

    group: FiniteGroup
    degree: int
    character: tuple[CycloNum, ...]
    conductor: int
    images: tuple[tuple[int, ...], ...]

    def __repr__(self):
        return f"IrreducibleRep({self.group.name}, degree={self.degree})"


def _generators(G: FiniteGroup) -> list[int]:
    """Each label that is not in the subgroup generated by the labels before it."""
    gens, sub = [], {0}
    for g in range(1, G.order):
        if g not in sub:
            gens.append(g)
            todo = list(sub)
            while todo:
                x = todo.pop()
                for s in gens:
                    y = G.mul(x, s)
                    if y not in sub:
                        sub.add(y)
                        todo.append(y)
    return gens


def _make_rep(G: FiniteGroup, mats: list[Matrix]) -> IrreducibleRep:
    """The representation with the given matrices, held as integer images:
    refused (AssertionError) unless rho(1) = I and rho(a) rho(s) = rho(as)
    for every label a and each generator s."""
    deg = len(mats[0])
    # a rational entry goes to conductor 1, so it does not raise the conductor
    mats = [[cyclo_from_int(e.n, e.num, e.den) for row in m for e in row] for m in mats]
    character = tuple(sum((m[i * deg + i] for i in range(deg)), _ZERO) for m in mats)
    conductor = math.lcm(*(e.n for m in mats for e in m))
    lifted = [[e.lift(conductor) for e in m] for m in mats]
    if any(e.den != 1 for m in lifted for e in m):
        raise AssertionError(f"{G.name}: representation entries are not integral")
    entries = [[e.num for e in m] for m in lifted]
    images = tuple(tuple(c for v in m for c in v) for m in entries)
    d = len(entries[0][0])
    if images[0] != tuple(int(i == j and k == 0)
                          for i in range(deg) for j in range(deg) for k in range(d)):
        raise AssertionError(f"{G.name}: identity is not represented by I")
    gens = _generators(G)
    for a in range(G.order):
        for s in gens:
            prod = []
            for i in range(deg):
                for j in range(deg):
                    terms = [_mul_int(entries[a][i * deg + t], entries[s][t * deg + j], conductor)
                             for t in range(deg)]
                    prod.extend(map(sum, zip(*terms)))
            if tuple(prod) != images[G.mul(a, s)]:
                raise AssertionError(
                    f"{G.name}: representation fails homomorphism at ({a},{s})")
    return IrreducibleRep(G, deg, character, conductor, images)


def _char_rep(G: FiniteGroup, values: list[CycloNum]) -> IrreducibleRep:
    return _make_rep(G, [((v,),) for v in values])


# -- family models ----------------------------------------------------------

def _zeta(n: int, k: int) -> CycloNum:
    return CycloNum.zeta(n, k) if n > 1 else _ONE


def _cyclic_reps(G: FiniteGroup):
    n = G.params[0]
    return [_char_rep(G, [_zeta(n, j * k) for k in range(n)]) for j in range(n)]


def _product_reps(G: FiniteGroup):
    n1, n2 = G.params
    return [_char_rep(G, [_zeta(n1, j1 * a) * _zeta(n2, j2 * b)
                          for a in range(n1) for b in range(n2)])
            for j1 in range(n1) for j2 in range(n2)]


def _dihedral_reps(G: FiniteGroup):
    # label k + n*e is r^k s^e
    n = G.params[0]
    linear_signs = [(1, 1), (1, -1)] if n % 2 else [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    out = [_char_rep(G, [CycloNum.from_rational((u ** (k % 2)) * (v ** e))
                         for e in range(2) for k in range(n)]) for u, v in linear_signs]
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    for h in range(1, top + 1):
        zs = [(CycloNum.zeta(n, h * k), CycloNum.zeta(n, -h * k)) for k in range(n)]
        out.append(_make_rep(G, [((zp, _ZERO), (_ZERO, zm)) for zp, zm in zs]
                             + [((_ZERO, zp), (zm, _ZERO)) for zp, zm in zs]))
    return out


def _perm_matrix_deleted(p) -> Matrix:
    """Permutation action on the sum-zero sublattice in the basis
    f_i = e_i - e_(i+1): f_j goes to e_p(j) - e_p(j+1), and
    e_a - e_b = f_a + ... + f_(b-1) for a < b."""
    m = len(p)
    rows = [[0] * (m - 1) for _ in range(m - 1)]
    for j in range(m - 1):
        a, b = p[j], p[j + 1]
        for i in range(min(a, b), max(a, b)):
            rows[i][j] = 1 if a < b else -1
    return tuple(tuple(CycloNum.from_rational(v) for v in row) for row in rows)


def _partition_action(p):
    """Image of a permutation of 4 points on the three pair-partitions."""
    partitions = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def norm(pr):
        pairs = sorted(tuple(sorted((p[a], p[b]))) for a, b in pr)
        return tuple(pairs)

    return tuple(partitions.index(norm(pr)) for pr in partitions)


def _symmetric_reps(G: FiniteGroup):
    """S3: trivial, sign and standard; S4 adds standard times sign and the
    2-dimensional model through S3 on the three pair-partitions."""
    perms = perm_elements_of(G)
    std = [_perm_matrix_deleted(p) for p in perms]
    out = [_char_rep(G, [_ONE] * G.order),
           _char_rep(G, [CycloNum.from_rational(perm_sign(p)) for p in perms]),
           _make_rep(G, std)]
    if G.params[0] == 4:
        out.append(_make_rep(G, [tuple(tuple(e * perm_sign(p) for e in row) for row in m)
                                 for p, m in zip(perms, std)]))
        out.append(_make_rep(G, [_perm_matrix_deleted(_partition_action(p)) for p in perms]))
    return out


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
    # rho of 1, i, j and k = ij; each odd label is the negative of the one before
    rho = [((_ONE, _ZERO), (_ZERO, _ONE)), ((z, _ZERO), (_ZERO, -z)),
           ((_ZERO, _ONE), (-_ONE, _ZERO)), ((_ZERO, z), (z, _ZERO))]
    out.append(_make_rep(G, [tuple(tuple(-e if g % 2 else e for e in row) for row in rho[g // 2])
                             for g in range(8)]))
    return out


@functools.lru_cache(maxsize=None)
def irreps(G: FiniteGroup) -> tuple[IrreducibleRep, ...]:
    """The complete list of irreducible representations, trivial character first."""
    builders = {"C": _cyclic_reps, "CxC": _product_reps, "D": _dihedral_reps,
                "Q": _quaternion_reps, "A": _alt4_reps, "S": _symmetric_reps}
    reps = sorted(builders[G.family](G),
                  key=lambda r: (0 if all(v == _ONE for v in r.character) else 1, r.degree))
    _check_complete(G, reps)
    return tuple(reps)


def _check_complete(G: FiniteGroup, reps) -> None:
    """Refuse (AssertionError) a list of representations unless <chi, chi> =
    |G| for each character, the characters are pairwise distinct and
    sum(deg^2) = |G|.  A character is a class function, so each sum runs
    over the class representatives."""
    for i, r in enumerate(reps):
        norm = sum((len(cls) * r.character[cls[0]] * r.character[G.inv(cls[0])]
                    for cls in G.conjugacy_classes), _ZERO)
        if norm != G.order:
            raise AssertionError(f"{G.name}: character {i} is not irreducible")
        if _character_index(G, reps, [r.character[cls[0]] for cls in G.conjugacy_classes]) != i:
            raise AssertionError(f"{G.name}: character {i} repeats an earlier one")
    if sum(r.degree ** 2 for r in reps) != G.order:
        raise AssertionError(f"{G.name}: sum of squared degrees is not |G|")


def _character_index(G: FiniteGroup, reps, values) -> int:
    """The index of the first character whose value at the representative
    of class k is values[k], for every k."""
    return next(i for i, r in enumerate(reps)
                if all(r.character[cls[0]] == v for cls, v in zip(G.conjugacy_classes, values)))


def central_idempotent(G: FiniteGroup, chi: IrreducibleRep | int):
    """The primitive central idempotent deg(chi)/|G| * sum chi(g) g^(-1) of
    a rational character, as an element of Q[G].  The idempotent of an
    irrational character is not in Q[G]; GroupAlgebraElement refuses its
    coefficients (ValueError).
    """
    from grax.algebra import GroupAlgebraElement

    rep = irreps(G)[chi] if isinstance(chi, int) else chi
    scale = Fraction(rep.degree, G.order)
    return GroupAlgebraElement.from_coeffs(
        G, [rep.character[G.inv(g)] * scale for g in range(G.order)])


def contragredient(rep: IrreducibleRep) -> IrreducibleRep:
    """The representation g -> transpose(rho(g^(-1))), whose character is
    chi(g^(-1))."""
    G, c = rep.group, rep.degree
    d = len(rep.images[0]) // (c * c)
    images = []
    for g in range(G.order):
        m = rep.images[G.inv(g)]
        images.append(tuple(x for i in range(c) for j in range(c)
                            for x in m[(j * c + i) * d:(j * c + i + 1) * d]))
    return IrreducibleRep(G, c, tuple(rep.character[G.inv(g)] for g in range(G.order)),
                          rep.conductor, tuple(images))


def contragredient_permutation(G: FiniteGroup) -> tuple[int, ...]:
    """perm[i] = catalog index of the contragredient of the i-th irreducible:
    the Galois permutation at a = -1 mod e, since g^(e-1) = g^(-1)."""
    return galois_permutation(G, -1 % G.exponent)


@functools.lru_cache(maxsize=None)
def galois_permutation(G: FiniteGroup, a: int) -> tuple[int, ...]:
    """perm[i] = index of the irreducible with character sigma_a(chi_i), for
    sigma_a: zeta_e -> zeta_e^a with a coprime to the exponent e.  Every
    value of chi is a sum of e-th roots of unity, the eigenvalues of rho(g),
    so sigma_a(chi)(g) = chi(g^a)."""
    e = G.exponent
    if math.gcd(a, e) != 1:
        raise ValueError(f"{a} is not coprime to the exponent {e}")
    powers = []
    for cls in G.conjugacy_classes:
        x = 0
        for _ in range(a % e):
            x = G.mul(x, cls[0])
        powers.append(x)
    reps = irreps(G)
    return tuple(_character_index(G, reps, [r.character[g] for g in powers]) for r in reps)
