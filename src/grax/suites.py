"""Seeded property suites over the algebra core.

Each suite draws its cases from a counter-based deterministic generator
(seed and case index fix the case exactly), runs one named batch of exact
checks, and reports pass/fail together with a replayable minimal case
description for every failure.  The default case counts are the ones the
acceptance gate runs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          adjoint_star, char_value, cleared_rows, gam_inverse, hash_involution,
                          int_block, nrd, nrd_op)
from grax.cyclo import AbelianFieldSpec, cyclotomic_unit, euler_family_check
from grax.cyclotomic import CycloNum
from grax.detfun import (det_free, inverse_object, ses_iso, ses_retraction,
                         ses_swap_sign, swap_sign, tensor, unit_object)
from grax.exterior import (epsilon_from_matrix, epsilon_vanishing, pair,
                           standard_basis_matrix, theta_b, theta_b_bijective,
                           theta_b_section, wedge_elements, wedge_homs)
from grax.fitting import (Budget, annihilation_check, fit_classical_oracle, fit_matrix,
                          lattice_from_central, leibniz_det, xi_approx)
from grax.groups import group_from_catalog
from grax.reps import irreps
from grax.serde import gam_to_json


@dataclass
class SuiteResult:
    name: str
    seed: int
    cases: int
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def _rng(seed, suite, case) -> random.Random:
    return random.Random(f"{seed}:{suite}:{case}")


def _rand_gae(rng, G, height):
    return GroupAlgebraElement.from_coeffs(
        G, [rng.randrange(-height, height + 1) for _ in range(G.order)])


def _rand_gam(rng, G, rows, cols, height):
    return GroupAlgebraMatrix.from_entries(
        G, [[_rand_gae(rng, G, height) for _ in range(cols)] for _ in range(rows)])


def _rand_invertible(rng, G, n, height=2):
    while True:
        M = _rand_gam(rng, G, n, n, height)
        if not nrd(M).has_zero_component():
            return M


def _fail(result, case_index, what, **payload):
    entry = {"case": case_index, "check": what}
    entry.update(payload)
    result.failures.append(entry)


@functools.lru_cache(maxsize=None)
def _xi(G, budget):
    return xi_approx(G, budget)


# -- the suites ---------------------------------------------------------------

def suite_oracle(seed=0, cases=200, budget=None) -> SuiteResult:
    """Commutative oracle equivalence: fit_matrix vs the classical minors
    ideal over Z[C_n], n <= 8, shapes up to 4x4, heights up to 5, a in 0..2."""
    t0 = time.time()
    res = SuiteResult("oracle", seed, cases)
    budget = budget or Budget()
    for i in range(cases):
        rng = _rng(seed, "oracle", i)
        n = rng.randrange(1, 9)
        G = group_from_catalog(f"C{n}")
        d = rng.randrange(1, 5)
        dp = rng.randrange(d, 5)
        M = _rand_gam(rng, G, dp, d, 5)
        for a in (0, 1, 2):
            got = fit_matrix(M, a, budget)
            want = fit_classical_oracle(M, a)
            if got != want:
                _fail(res, i, f"fit^{a} != classical oracle", group=G.name,
                      matrix=gam_to_json(M), a=a)
    res.elapsed = time.time() - t0
    return res


_NRD_GROUPS = ("C6", "S3", "D4", "Q8", "A4")


def suite_nrd_props(seed=0, cases=500, transpose_cases=200, budget=None) -> SuiteResult:
    """Multiplicativity of the reduced norm, abelian agreement with the
    characterwise determinant, and the transpose-involution identity."""
    t0 = time.time()
    res = SuiteResult("nrd-props", seed, cases + transpose_cases)
    for i in range(cases):
        rng = _rng(seed, "nrd", i)
        G = group_from_catalog(rng.choice(_NRD_GROUPS))
        n = rng.randrange(1, 3)
        A = _rand_gam(rng, G, n, n, 3)
        B = _rand_gam(rng, G, n, n, 3)
        if nrd(A * B) != nrd(A) * nrd(B):
            _fail(res, i, "nrd multiplicativity", group=G.name,
                  A=gam_to_json(A), B=gam_to_json(B))
        if G.is_abelian():
            det = leibniz_det(G, A.entries)
            char_det = CentralElement(G, tuple(char_value(rep, det) for rep in irreps(G)))
            if nrd(A) != char_det:
                _fail(res, i, "abelian characterwise determinant", group=G.name,
                      A=gam_to_json(A))
    for i in range(transpose_cases):
        rng = _rng(seed, "nrd-tr", i)
        G = group_from_catalog(rng.choice(_NRD_GROUPS))
        n = rng.randrange(1, 3)
        A = _rand_gam(rng, G, n, n, 3)
        if nrd(A.transpose().involute_entries()) != hash_involution(nrd(A)):
            _fail(res, i, "transpose identity", group=G.name, A=gam_to_json(A))
    res.elapsed = time.time() - t0
    return res


_ADJOINT_GROUPS = ("C6", "S3", "D4", "Q8", "A4")


def suite_adjoint(seed=0, cases=200, budget=None) -> SuiteResult:
    """Both defining identities of the generalized adjoint, the component
    vanishing biconditional, and integrality of |G| M* for integral M."""
    t0 = time.time()
    res = SuiteResult("adjoint", seed, cases)
    for i in range(cases):
        rng = _rng(seed, "adjoint", i)
        G = group_from_catalog(rng.choice(_ADJOINT_GROUPS))
        n = rng.randrange(1, 3)
        M = _rand_gam(rng, G, n, n, 2)
        if rng.random() < 0.4:
            # force singular components: right-multiply one column by the
            # all-elements sum, which dies at every nontrivial character
            z = GroupAlgebraElement.from_coeffs(G, [1] * G.order)
            col = rng.randrange(n)
            M = GroupAlgebraMatrix.from_entries(
                G, [[M.entries[r][c] * z if c == col else M.entries[r][c]
                     for c in range(n)] for r in range(n)])
        star = adjoint_star(M)
        nv = nrd(M)
        scaled = GroupAlgebraMatrix.identity(G, n) * nv.to_group_algebra()
        left, right = M * star, star * M
        if left != scaled or right != scaled:
            _fail(res, i, "M M* = M* M = nrd(M) I", group=G.name, M=gam_to_json(M))
        star_rows = cleared_rows(star.entries)[0]
        for chi, rep in enumerate(irreps(G)):
            star_zero = not any(any(v) for row in int_block(star_rows, rep) for v in row)
            if star_zero != nv.values[chi].is_zero():
                _fail(res, i, "component vanishing biconditional",
                      group=G.name, M=gam_to_json(M), chi=chi)
                break
        if M.is_integral():
            if not (star * G.order).is_integral():
                _fail(res, i, "|G| M* integral", group=G.name, M=gam_to_json(M))
    res.elapsed = time.time() - t0
    return res


_PAIRING_GROUPS = ("C1", "C4", "C8", "C2xC3", "S3", "D4", "D5", "Q8", "A4", "C12")


def suite_pairing(seed=0, cases=300, budget=None) -> SuiteResult:
    """Full-degree pairing against the Gram-matrix reduced norm, the
    endomorphism scaling rule, and the dual-basis normalization."""
    t0 = time.time()
    res = SuiteResult("pairing", seed, cases)
    for i in range(cases):
        rng = _rng(seed, "pairing", i)
        G = group_from_catalog(rng.choice(_PAIRING_GROUPS))
        k = rng.randrange(1, 4)
        r = rng.randrange(1, min(k, 3) + 1)
        W = _rand_gam(rng, G, r, k, 2)
        P = _rand_gam(rng, G, r, k, 2)
        lhs = pair(wedge_homs(P), wedge_elements(W))
        rhs = nrd_op((W * P.transpose()).transpose())
        if lhs != rhs:
            _fail(res, i, "pairing equals Gram reduced norm", group=G.name,
                  elements=gam_to_json(W), homs=gam_to_json(P))
        phi = _rand_gam(rng, G, k, k, 2)
        scaled = wedge_elements(phi)
        expected = wedge_elements(standard_basis_matrix(G, k, range(k))).scale(nrd(phi))
        if scaled != expected:
            _fail(res, i, "endomorphism scaling", group=G.name, phi=gam_to_json(phi))
        b = standard_basis_matrix(G, k, range(k))
        if pair(wedge_homs(b), wedge_elements(b)) != CentralElement.one(G):
            _fail(res, i, "dual-basis normalization", group=G.name, k=k)
    res.elapsed = time.time() - t0
    return res


_EPSILON_GROUPS = ("C6", "S3", "Q8")


def suite_epsilon(seed=0, cases=100, budget=None) -> SuiteResult:
    """Kernel-element identities: pairing against hom tuples equals block
    reduced norms, and the component-vanishing rank criterion."""
    t0 = time.time()
    res = SuiteResult("epsilon", seed, cases)
    for i in range(cases):
        rng = _rng(seed, "epsilon", i)
        G = group_from_catalog(rng.choice(_EPSILON_GROUPS))
        d = rng.randrange(1, 3)
        dp = d + rng.randrange(1, 3)
        r = dp - d
        M = _rand_gam(rng, G, dp, d, 2)
        eps = epsilon_from_matrix(M)
        Mp = _rand_gam(rng, G, dp, r, 2)
        lhs = pair(wedge_homs(Mp.transpose()), eps)
        block = GroupAlgebraMatrix.from_entries(
            G, [[Mp.entries[t][j] if j < r else M.entries[t][j - r]
                 for j in range(dp)] for t in range(dp)])
        if lhs != nrd(block):
            _fail(res, i, "pairing identity (M'|M)", group=G.name,
                  M=gam_to_json(M), Mp=gam_to_json(Mp))
        for nz, generic in epsilon_vanishing(M, eps):
            if nz != generic:
                _fail(res, i, "vanishing criterion", group=G.name, M=gam_to_json(M))
                break
    res.elapsed = time.time() - t0
    return res


_THETA_GROUPS = ("C4", "C6", "S3", "D4", "Q8")


def suite_theta_split(seed=0, cases=100, budget=None) -> SuiteResult:
    """Coordinate splitting: the section composed with the coordinate map is
    the identity, and the bijectivity dimension criterion."""
    t0 = time.time()
    res = SuiteResult("theta-split", seed, cases)
    for i in range(cases):
        rng = _rng(seed, "theta", i)
        G = group_from_catalog(rng.choice(_THETA_GROUPS))
        d = rng.randrange(1, 4)
        r = rng.randrange(1, d + 1)
        xi = _xi(G, Budget(max_matrix_size=1))
        els = xi.elements()
        coeffs = {}
        for sigma in itertools.combinations(range(d), r):
            coeffs[sigma] = els[rng.randrange(len(els))] * rng.randrange(-3, 4)
        x = theta_b_section(G, d, r, coeffs)
        back = theta_b(x)
        for sigma, c in coeffs.items():
            if back[sigma] != c:
                _fail(res, i, "theta_b on section is identity", group=G.name,
                      d=d, r=r, sigma=list(sigma))
                break
    for G_name in _THETA_GROUPS:
        G = group_from_catalog(G_name)
        for d in (1, 2, 3):
            for r in range(0, d + 1):
                expected = G.is_abelian() or r == d or r == 0
                if theta_b_bijective(G, d, r) != expected:
                    _fail(res, -1, "bijectivity dimension criterion",
                          group=G_name, d=d, r=r)
    res.elapsed = time.time() - t0
    return res


_DETFUN_GROUPS = ("C4", "S3", "D4")


def suite_detfun(seed=0, cases=100, budget=None) -> SuiteResult:
    """Determinant-functor signs: tensor swap sign, exact-sequence
    isomorphism section-independence, and the order-swap sign diagram."""
    t0 = time.time()
    res = SuiteResult("detfun", seed, cases)
    for i in range(cases):
        rng = _rng(seed, "detfun", i)
        G = group_from_catalog(rng.choice(_DETFUN_GROUPS))
        r1 = rng.randrange(1, 3)
        r3 = rng.randrange(1, 3)
        r2 = r1 + r3
        W = _rand_invertible(rng, G, r2)
        Winv = gam_inverse(W)
        theta = GroupAlgebraMatrix.from_entries(G, [list(W.entries[j]) for j in range(r1)])
        phi = GroupAlgebraMatrix.from_entries(
            G, [[Winv.entries[t][j] for j in range(r1, r2)] for t in range(r2)])
        sect0 = GroupAlgebraMatrix.from_entries(
            G, [list(W.entries[j]) for j in range(r1, r2)])
        Z = _rand_gam(rng, G, r3, r1, 2)
        sect1 = sect0 + Z * theta
        i0 = ses_iso(theta, phi, sect0)
        i1 = ses_iso(theta, phi, sect1)
        if i0.factor != i1.factor:
            _fail(res, i, "ses_iso section independence", group=G.name)
        retr = ses_retraction(theta, sect0)
        flipped = ses_iso(sect0, retr, theta)
        if flipped.factor != ses_swap_sign(i0) * i0.factor:
            _fail(res, i, "order-swap sign diagram", group=G.name)
        X = det_free(_rand_invertible(rng, G, 1))
        Y = det_free(_rand_invertible(rng, G, 2))
        s = swap_sign(X, Y)
        for v, a, b in zip(s.values, X.grading, Y.grading):
            want = -1 if (a * b) % 2 else 1
            if v.as_rational() != want:
                _fail(res, i, "tensor swap sign", group=G.name)
                break
        if tensor(X, inverse_object(X)).scalars != unit_object(G).scalars:
            _fail(res, i, "inverse evaluates to the unit", group=G.name)
    res.elapsed = time.time() - t0
    return res


_ANNIHILATION_GROUPS = ("C4", "S3", "D4")


def suite_annihilation(seed=0, cases=100, budget=None) -> SuiteResult:
    """x = |G| * 1 annihilates the cokernel of every enumerated presentation
    with componentwise-nonzero reduced norm."""
    t0 = time.time()
    res = SuiteResult("annihilation", seed, cases)
    done = 0
    i = 0
    while done < cases:
        rng = _rng(seed, "annihilation", i)
        i += 1
        G = group_from_catalog(rng.choice(_ANNIHILATION_GROUPS))
        n = rng.randrange(1, 3)
        M = _rand_gam(rng, G, n, n, 2)
        if nrd(M).has_zero_component():
            continue
        done += 1
        x = CentralElement.from_rational(G, G.order)
        if not annihilation_check(M, x):
            _fail(res, i, "|G| nrd(M) annihilates the cokernel",
                  group=G.name, M=gam_to_json(M))
    res.elapsed = time.time() - t0
    return res


def suite_cyclo(seed=0, fmax=30, ellmax=13, budget=None) -> SuiteResult:
    """Distribution relation over the whole admissible range, the flipped
    convention guard, and the rational cyclotomic-unit values."""
    t0 = time.time()
    res = SuiteResult("cyclo", seed, 0)
    rows = euler_family_check(fmax, ellmax)
    res.cases = len(rows)
    for row in rows:
        if not row.passed:
            _fail(res, 0, "distribution relation", f=row.conductor, ell=row.prime)
    guard = [r for r in euler_family_check(min(fmax, 12), min(ellmax, 7),
                                           convention="direct") if not r.passed]
    if not guard:
        _fail(res, 0, "flipped-convention guard found no failure")
    else:
        res.notes.append(
            f"direct-Frobenius convention fails at (f={guard[0].conductor}, "
            f"l={guard[0].prime}) as required")
    for ell in (3, 5, 7, 11, 13):
        full = tuple(range(1, ell))
        val = cyclotomic_unit(AbelianFieldSpec(ell, full))
        if not (val.is_rational() and val.as_rational() == ell):
            _fail(res, 0, "prime-conductor unit value", ell=ell)
    H12 = tuple(h for h in range(1, 12) if math.gcd(h, 12) == 1)
    v12 = cyclotomic_unit(AbelianFieldSpec(12, H12))
    if not (v12.is_rational() and v12.as_rational() == 1):
        _fail(res, 0, "conductor-12 unit value")
    res.elapsed = time.time() - t0
    return res


def suite_xi(seed=0, budget=None) -> SuiteResult:
    """Whitehead-order sanity: abelian exactness, the derived Q8 generator,
    stabilization, and generator certification."""
    t0 = time.time()
    res = SuiteResult("xi-sanity", seed, 0)
    budget = budget or Budget()
    for n in range(1, 9):
        G = group_from_catalog(f"C{n}")
        xi = xi_approx(G, budget)
        res.cases += 1
        image = lattice_from_central(
            G, [CentralElement(G, tuple(r.character[g] for r in irreps(G)))
                for g in range(G.order)])
        if not (xi.exact and xi.lattice == image.lattice
                and xi.denominator == image.denominator):
            _fail(res, n, "abelian order equals the image of Z[G]", group=G.name)
    G = group_from_catalog("Q8")
    xi = xi_approx(G, budget)
    res.cases += 1
    target = CentralElement(G, tuple(CycloNum.from_rational(v)
                                     for v in (2, 0, 2, 0, 2)))
    if not xi.contains(target):
        _fail(res, 0, "Q8 order contains the derived generator (2,0,2,0,2)")
    if not xi.stable:
        _fail(res, 0, "Q8 order fails to stabilize within the default budget")
    for el in xi.elements():
        if not el.is_integral():
            _fail(res, 0, "order generator fails integrality")
            break
    res.notes.append(f"xi(Q8): index data hnf={[list(r) for r in xi.lattice.basis]}, "
                     f"denominator={xi.denominator}")
    res.elapsed = time.time() - t0
    return res


SUITES = {
    "oracle": suite_oracle,
    "nrd-props": suite_nrd_props,
    "adjoint": suite_adjoint,
    "pairing": suite_pairing,
    "epsilon": suite_epsilon,
    "theta-split": suite_theta_split,
    "detfun": suite_detfun,
    "annihilation": suite_annihilation,
    "cyclo": suite_cyclo,
    "xi-sanity": suite_xi,
}


def run_suite(name: str, seed=0, budget=None, scale: float = 1.0):
    """Run one suite; scale shrinks the default case counts for quick runs."""
    fn = SUITES[name]
    kwargs = {"seed": seed, "budget": budget}
    if scale != 1.0:
        for pname, param in inspect.signature(fn).parameters.items():
            if pname in ("cases", "transpose_cases"):
                kwargs[pname] = max(1, int(param.default * scale))
    return fn(**kwargs)
