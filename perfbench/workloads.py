"""The benchmark workloads: seeded inputs, timed cases and exact checks.

A run takes block 0 of its workload's cases.  A block has a fixed
composition: the same cells in the same order, over the same base
matrices, for every seed.  The seed turns each base matrix into an
equivalent one (``equivalent``: rows and columns permuted and scaled by
units), which presents the same module and does the same arithmetic.  So
the inputs change with the seed while the expected results and the cost of
every case do not, and the spread of a metric over seeds is the machine's,
not the inputs'.

A case returns a list of failed checks (empty when every exact check
passed).  All library calls go through ``tr.call`` so that a traced run
records them as spans.  ``replay`` runs in traced runs only: it sends a
sample of the workload's own inputs through the lower layers one call at a
time and checks that the recomposed result equals the library's.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import random

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          adjoint_star, gam_inverse, matrix_from_blocks, nrd, nrd_op,
                          wedderburn_block)
from grax.detfun import ses_iso
from grax.exterior import epsilon_from_matrix, pair, wedge_elements, wedge_homs
from grax.fitting import (Budget, annihilation_check, delta_check, fit_classical_oracle,
                          fit_matrix, xi_approx)
from grax.groups import group_from_catalog
from grax.lattices import hnf, smith_normal_form
from grax import linalg
from grax.reps import irreps

# Explicit budgets, equal to the program's defaults when this benchmark was
# written, so that a change of default cannot shrink the work silently.
XI_BUDGET = Budget(max_matrix_size=2, coeff_height=1, support=2, rounds=4,
                   max_candidates=20000)
FIT_BUDGET = XI_BUDGET
DELTA_BUDGET = Budget(max_matrix_size=1, coeff_height=1, support=2, rounds=4,
                      max_candidates=20000)


# run(tracer, out) -> list of failed checks; out collects results for replay
Case = collections.namedtuple("Case", "cid run")


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def rand_gae(rng, G, height):
    return GroupAlgebraElement.from_coeffs(
        G, [rng.randrange(-height, height + 1) for _ in range(G.order)])


def rand_gam(rng, G, rows, cols, height):
    return GroupAlgebraMatrix.from_entries(
        G, [[rand_gae(rng, G, height) for _ in range(cols)] for _ in range(rows)])


def equivalent(rng, M, shift=False):
    """M with its rows and columns permuted and each scaled by a unit: 1 or
    -1, times a random group element when ``shift`` (for commutative group
    rings).  The result presents the same module as M, so its Fitting
    invariants equal M's, and it has the same coefficients up to sign and
    position, so it costs the same arithmetic."""
    G = M.group

    def unit():
        u = GroupAlgebraElement.basis(G, rng.randrange(G.order) if shift else 0)
        return -u if rng.random() < 0.5 else u

    rows, cols = rng.sample(range(M.rows), M.rows), rng.sample(range(M.cols), M.cols)
    ru, cu = [unit() for _ in rows], [unit() for _ in cols]
    return GroupAlgebraMatrix.from_entries(
        G, [[ru[i] * M.entries[r][c] * cu[j] for j, c in enumerate(cols)]
            for i, r in enumerate(rows)])


def rand_invertible(rng, G, n, height):
    while True:
        M = rand_gam(rng, G, n, n, height)
        if not nrd(M).has_zero_component():
            return M


def gam_eq(A, B):
    return (A.rows, A.cols) == (B.rows, B.cols) and all(
        (a - b).is_zero() for ra, rb in zip(A.entries, B.entries) for a, b in zip(ra, rb))


def scaled_identity(G, n, c: CentralElement):
    z = c.to_group_algebra()
    zero = GroupAlgebraElement.zero(G)
    return GroupAlgebraMatrix.from_entries(
        G, [[z if i == j else zero for j in range(n)] for i in range(n)])


def lattice_digest(L) -> str:
    """Exact fingerprint of a canonical central lattice (HNF basis and denominator)."""
    blob = json.dumps([L.denominator, [list(r) for r in L.lattice.basis]])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def lattice_record(L) -> dict:
    return {"denominator": L.denominator, "basis": [list(r) for r in L.lattice.basis],
            "stable": L.stable}


# -- replay helpers (traced runs) --------------------------------------------

def replay_nrd(tr, M):
    """nrd(M) against the determinants of its Wedderburn blocks."""
    want = tr.call("algebra.nrd", nrd, M)
    dets = []
    for chi in range(len(irreps(M.group))):
        blk = tr.call("algebra.wedderburn_block", wedderburn_block, M, chi)
        dets.append(tr.call("linalg.mat_det", linalg.mat_det, blk))
    got = CentralElement(M.group, tuple(dets))
    return [] if got == want else ["nrd != product of block determinants"]


def replay_lattice(tr, L, gens):
    """Rebuild a central lattice from generators through coords and hnf."""
    G = L.group
    coords = [tr.call("algebra.coords", g.coords) for g in gens]
    den = 1
    for row in coords:
        for c in row:
            den = den * c.denominator // math.gcd(den, c.denominator)
    rows = [[int(c * den) for c in row] for row in coords]
    tr.count("lattices.hnf_rows", len(rows))
    lat = tr.call("lattices.hnf", hnf, rows, len(G.conjugacy_classes))
    g = den
    for row in lat.basis:
        for v in row:
            g = math.gcd(g, v)
    basis = tuple(tuple(v // g for v in row) for row in lat.basis)
    if (den // g, basis) != (L.denominator, L.lattice.basis):
        return ["coords/hnf replay != lattice"]
    return []


def replay_scalars_n1(tr, M, limit=40):
    coeffs = [c for row in M.entries for e in row for c in e.coeffs][:limit]
    for x, y in zip(coeffs, reversed(coeffs)):
        tr.call("cyclotomic.mul_n1", x.__mul__, y)


def regular_int_matrix(M):
    """Integer matrix of x -> x*M on Z[G]^d, built here independently."""
    G, n, d = M.group, M.group.order, M.rows
    rows = []
    for t in range(d):
        for g in range(n):
            vec = [0] * (d * n)
            for j in range(d):
                for h, c in enumerate(M.entries[t][j].coeffs):
                    if not c.is_zero():
                        vec[j * n + G.mul(g, h)] += int(c.as_rational())
            rows.append(vec)
    return rows


def replay_hnf_snf(tr, M):
    """|det| of the regular representation: HNF pivots against SNF invariants."""
    rows = regular_int_matrix(M)
    tr.count("lattices.hnf_rows", len(rows))
    lat = tr.call("lattices.hnf", hnf, rows, len(rows))
    inv, _, _ = tr.call("lattices.snf", smith_normal_form, rows)
    p_h = math.prod(abs(r[next(i for i, v in enumerate(r) if v)]) for r in lat.basis)
    p_s = math.prod(abs(v) for v in inv)
    if len(lat.basis) == len(rows) and p_h != p_s:
        return ["hnf and snf disagree on |det|"]
    return []


# -- abelian-fitting ------------------------------------------------------------

_ABELIAN_CELLS = [(n, dp, d) for n in range(1, 9)
                  for dp, d in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                (4, 1), (4, 2), (4, 3), (4, 4))]


class AbelianFitting:
    """fit_matrix against the classical minors oracle over Z[C_n]."""

    name = "abelian-fitting"
    groups = tuple(f"C{n}" for n in range(1, 9))
    CELLS = _ABELIAN_CELLS
    # stride through the cells so that every prefix of a block mixes
    # cheap and expensive cells
    ORDER = [_ABELIAN_CELLS[(i * 31) % 80] for i in range(80)]
    POOL = 6
    HEIGHT = 5

    def __init__(self, ref):
        self.ref = ref["fit_abelian"]

    @classmethod
    def pool_matrix(cls, n, dp, d, idx):
        G = group_from_catalog(f"C{n}")
        return rand_gam(rng_for("pool", cls.name, n, dp, d, idx), G, dp, d, cls.HEIGHT)

    def block(self, seed, b):
        cases = []
        for i, (n, dp, d) in enumerate(self.ORDER):
            idx = (i + b) % self.POOL
            M = equivalent(rng_for(seed, self.name, b, n, dp, d),
                           self.pool_matrix(n, dp, d, idx), shift=True)
            # one a per cell, in turn, so that a pass is short enough for
            # many passes in a run
            a = (i + b) % 3
            key = f"C{n}/{dp}x{d}/{idx}/{a}"
            cases.append(Case(key, self._case(M, a, key)))
        return cases

    def _case(self, M, a, key):
        def run(tr, out):
            got = tr.call("fitting.fit_matrix", fit_matrix, M, a, FIT_BUDGET)
            want = tr.call("fitting.fit_oracle", fit_classical_oracle, M, a)
            out[key] = (M, got)
            errs = []
            if got != want:
                errs.append("fit_matrix != classical oracle")
            if lattice_digest(got) != self.ref[key]:
                errs.append("Fitting lattice != recorded reference")
            return errs
        return run

    def replay(self, tr, out, rng):
        errs = []
        for key in rng.sample(sorted(out), min(40, len(out))):
            M, L = out[key]
            errs += replay_lattice(tr, L, L.elements())
            sq = GroupAlgebraMatrix.from_entries(M.group, M.entries[:M.cols])
            errs += replay_nrd(tr, sq)
            replay_scalars_n1(tr, M)
            flat = [e for row in M.entries for e in row]
            for x, y in zip(flat, reversed(flat)):
                tr.call("algebra.gae_mul_cn", x.__mul__, y)
        return errs


# -- whitehead-order ------------------------------------------------------------

class WhiteheadOrder:
    """xi at a pinned budget, non-abelian Fitting invariants using it, and delta."""

    name = "whitehead-order"
    groups = ("S3", "D4", "Q8")
    # One case is one group's whole computation: xi, then Fit^0 and Fit^1 of
    # (rows, cols, count) matrices over it, then delta.  Finer cases (one
    # Fitting invariant each) made the median sample only the few seconds
    # between the xi calls, which swung with the machine's speed.
    SHAPES = ((2, 2, 12), (3, 2, 8))
    POOL = 20
    HEIGHT = 2

    def __init__(self, ref):
        self.ref_xi = ref["xi"]
        self.ref_fit = ref["fit_whitehead"]
        self.ref_delta = ref["delta"]

    @classmethod
    def pool_matrix(cls, gname, dp, d, idx):
        G = group_from_catalog(gname)
        return rand_gam(rng_for("pool", cls.name, gname, dp, d, idx), G, dp, d, cls.HEIGHT)

    def block(self, seed, b):
        cases = []
        for gname in self.groups:
            mats = []
            for dp, d, per_block in self.SHAPES:
                rng = rng_for(seed, self.name, gname, dp, d, b)
                picks = [(b * per_block + k) % self.POOL for k in range(per_block)]
                mats += [(f"{gname}/{dp}x{d}/{idx}",
                          equivalent(rng, self.pool_matrix(gname, dp, d, idx)))
                         for idx in picks]
            cases.append(Case(f"{gname}/{b}", self._case(gname, mats)))
        return cases

    def _case(self, gname, mats):
        def run(tr, out):
            G = group_from_catalog(gname)
            errs = []
            xi = tr.call(f"fitting.xi_approx_{gname}", xi_approx, G, XI_BUDGET)
            out[f"xi/{gname}"] = (None, xi)
            if lattice_record(xi) != self.ref_xi[gname]:
                errs.append("xi lattice != recorded reference")
            for key, M in mats:
                fits = [tr.call("fitting.fit_matrix", fit_matrix, M, a, FIT_BUDGET, xi)
                        for a in (0, 1)]
                for a, L in enumerate(fits):
                    out[f"{key}/{a}"] = (M, L)
                    if lattice_digest(L) != self.ref_fit[f"{key}/{a}"]:
                        errs.append("Fitting lattice != recorded reference")
                if not fits[1].contains_lattice(fits[0]):
                    errs.append("Fit^0 is not contained in Fit^1")
            x = CentralElement.from_rational(G, G.order)
            v = tr.call("fitting.delta_check", delta_check, x, G, DELTA_BUDGET)
            if v.kind != self.ref_delta[gname]:
                errs.append("delta verdict != reference")
            return errs
        return run

    def replay(self, tr, out, rng):
        errs = []
        for gname in self.groups:
            G = group_from_catalog(gname)
            xi = out[f"xi/{gname}"][1]
            els = xi.elements()
            # closure: a stable xi is unchanged by adding all products
            errs += replay_lattice(tr, xi, els + [x * y for x in els for y in els])
            pool = [GroupAlgebraElement.zero(G)] + [
                GroupAlgebraElement.basis(G, g) for g in range(G.order)]
            for _ in range(40):
                errs += replay_nrd(tr, GroupAlgebraMatrix.from_entries(
                    G, [[rng.choice(pool) for _ in range(2)] for _ in range(2)]))
        fits = sorted(k for k in out if not k.startswith("xi/"))
        for key in rng.sample(fits, min(30, len(fits))):
            M, L = out[key]
            errs += replay_lattice(tr, L, L.elements())
            replay_scalars_n1(tr, M)
        return errs


# -- split-side -----------------------------------------------------------------

class SplitSide:
    """Blocks in both directions: adjoint, inverse, exterior pairing, epsilon,
    exact-sequence isomorphisms and annihilation."""

    name = "split-side"
    groups = ("S3", "D4", "Q8", "A4", "C12")
    SIZES = (1, 2, 3)
    HEIGHT = 2
    # annihilation_check's Smith normal form can blow up on larger integer
    # matrices (one A4 2x2 input, 24 x 24, took 15 s; a 3x3 over a group of
    # order 12 did not finish in minutes), which no steady run can absorb.
    # It runs where d * |G| <= 16, where it stays in milliseconds.
    SNF_MAX_DIM = 16

    def __init__(self, ref):
        pass

    def block(self, seed, b):
        cases = []
        for gname in self.groups:
            for s in self.SIZES:
                key = f"{gname}/{s}/{b}"
                cases += self._cases(rng_for("pool", self.name, b, gname, s),
                                     rng_for(seed, self.name, b, gname, s), gname, s, key)
        return cases

    def _inputs(self, base, rng, G, s):
        # base draws the cell's matrices, the same for every seed; rng (from
        # the seed) turns each into an equivalent one of the same cost
        h = self.HEIGHT
        M = equivalent(rng, rand_invertible(base, G, s, h))
        W, P = (equivalent(rng, rand_gam(base, G, s, s, h)) for _ in range(2))
        gram = GroupAlgebraMatrix.from_entries(
            G, [[_dot(W.row(j), P.row(i)) for j in range(s)] for i in range(s)])
        T, Tp = (equivalent(rng, rand_gam(base, G, s + 1, c, h)) for c in (s, 1))
        homs = GroupAlgebraMatrix.from_entries(G, [[Tp.entries[t][0] for t in range(s + 1)]])
        glued = GroupAlgebraMatrix.from_entries(
            G, [[Tp.entries[t][0]] + list(T.entries[t]) for t in range(s + 1)])
        r2 = max(2, s)
        B = equivalent(rng, rand_invertible(base, G, r2, h))
        Binv = gam_inverse(B)
        theta = GroupAlgebraMatrix.from_entries(G, [list(B.entries[0])])
        phi = GroupAlgebraMatrix.from_entries(
            G, [[Binv.entries[t][j] for j in range(1, r2)] for t in range(r2)])
        sect0 = GroupAlgebraMatrix.from_entries(G, [list(B.entries[j]) for j in range(1, r2)])
        sect1 = sect0 + rand_gam(base, G, r2 - 1, 1, h) * theta
        return M, W, P, gram, T, homs, glued, theta, phi, sect0, sect1

    def _cases(self, base, rng, gname, s, key):
        """One case per operation on the cell's inputs, each with its check."""
        G = group_from_catalog(gname)
        M, W, P, gram, T, homs, glued, theta, phi, sect0, sect1 = self._inputs(base, rng, G, s)

        def adjoint(tr, out):
            star = tr.call("algebra.adjoint_star", adjoint_star, M)
            nv = tr.call("algebra.nrd", nrd, M)
            out[key] = (M, nv)
            target = scaled_identity(G, s, nv)
            left = tr.call("algebra.gam_mul", M.__mul__, star)
            right = tr.call("algebra.gam_mul", star.__mul__, M)
            if not (gam_eq(left, target) and gam_eq(right, target)):
                return ["M M* = M* M = nrd(M) I fails"]
            return []

        def inverse(tr, out):
            inv = tr.call("algebra.gam_inverse", gam_inverse, M)
            one = GroupAlgebraMatrix.identity(G, s)
            if inv is None or not gam_eq(tr.call("algebra.gam_mul", M.__mul__, inv), one):
                return ["gam_inverse is not an inverse"]
            return []

        def pairing(tr, out):
            xe = tr.call("exterior.wedge", wedge_elements, W)
            hw = tr.call("exterior.wedge", wedge_homs, P)
            if tr.call("exterior.pair", pair, hw, xe) != tr.call("algebra.nrd_op", nrd_op, gram):
                return ["pairing != nrd_op of the Gram matrix"]
            return []

        def epsilon(tr, out):
            eps = tr.call("exterior.epsilon", epsilon_from_matrix, T)
            lhs = tr.call("exterior.pair", pair, tr.call("exterior.wedge", wedge_homs, homs), eps)
            if lhs != tr.call("algebra.nrd", nrd, glued):
                return ["pairing with epsilon != nrd of (M'|M)"]
            return []

        def sections(tr, out):
            i0 = tr.call("detfun.ses_iso", ses_iso, theta, phi, sect0)
            i1 = tr.call("detfun.ses_iso", ses_iso, theta, phi, sect1)
            return [] if i0.factor == i1.factor else ["ses_iso depends on the section"]

        def annihilation(tr, out):
            x = CentralElement.from_rational(G, G.order)
            if not tr.call("fitting.annihilation", annihilation_check, M, x):
                return ["|G| nrd(M) does not annihilate the cokernel"]
            return []

        ops = [adjoint, inverse, pairing, epsilon, sections]
        if s * G.order <= self.SNF_MAX_DIM:
            ops.append(annihilation)
        return [Case(f"{key}/{op.__name__}", op) for op in ops]

    def replay(self, tr, out, rng):
        errs = []
        for key in sorted(out):
            M, nv = out[key]
            G = M.group
            errs += replay_nrd(tr, M)
            blocks = [wedderburn_block(M, chi) for chi in range(len(irreps(G)))]
            back = tr.call("algebra.matrix_from_blocks", matrix_from_blocks, G, M.rows,
                           M.cols, blocks)
            if not gam_eq(back, M):
                errs.append("matrix_from_blocks does not invert wedderburn_block")
            for blk, v in zip(blocks, nv.values):
                rank = tr.call("linalg.mat_rank", linalg.mat_rank, blk)
                inv = tr.call("linalg.mat_inverse", linalg.mat_inverse, blk)
                if (rank == len(blk)) == v.is_zero() or (inv is None) != v.is_zero():
                    errs.append("rank/inverse disagree with the reduced norm")
            co = tr.call("algebra.coords", nv.coords)
            if CentralElement.from_coords(G, co) != nv:
                errs.append("coords round trip")
            if M.rows * G.order <= self.SNF_MAX_DIM:
                errs += replay_hnf_snf(tr, M)
            replay_scalars_n1(tr, M)
            if G.exponent == 12:
                vals = [e for blk in blocks for row in blk for e in row if not e.is_zero()]
                for x, y in zip(vals, reversed(vals)):
                    tr.call("cyclotomic.mul_n12", x.lift(12).__mul__, y.lift(12))
                for x in vals:
                    inv = tr.call("cyclotomic.inverse_n12", x.lift(12).inverse)
                    if inv * x != 1:
                        errs.append("inverse at conductor 12")
        return errs


def _dot(w_row, p_row):
    acc = GroupAlgebraElement.zero(w_row[0].group)
    for wt, pt in zip(w_row, p_row):
        acc = acc + wt * pt
    return acc


WORKLOADS = {w.name: w for w in (AbelianFitting, WhiteheadOrder, SplitSide)}
