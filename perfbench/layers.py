"""Per-layer metrics of a traced run, and the shared probes that supply them.

A per-layer metric is the per-call median of one span name.  It is taken
over the workload's own calls (its cases and their replays) when the
workload makes that call, and otherwise over a small seeded probe that
every traced run can run, so that each metric is measured on every
workload.  Which source fed each metric is written to the trace file.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from grax.algebra import CentralElement, nrd
from grax.cyclo import distribution_check, is_prime, relative_norm
from grax.cyclotomic import CycloNum, NotInSubfield, cyclo_make, descend, galois_apply
from grax.fitting import delta_check, xi_approx
from grax.groups import group_from_catalog
from grax.reps import irreps

from workloads import (DELTA_BUDGET, XI_BUDGET, AbelianFitting, SplitSide, WhiteheadOrder,
                       lattice_record, rand_gae, rand_gam)

LAYERS = ("cyclotomic", "algebra", "linalg", "lattices", "fitting", "exterior",
          "detfun", "cyclo", "reps", "bench")

# metric name -> (span name, scale to the metric's unit)
PER_CALL = {
    "cyclotomic.mul_n1_us": ("cyclotomic.mul_n1", 1e6),
    "cyclotomic.mul_n12_us": ("cyclotomic.mul_n12", 1e6),
    "cyclotomic.inverse_n12_us": ("cyclotomic.inverse_n12", 1e6),
    "cyclotomic.mul_large_us": ("cyclotomic.mul_large", 1e6),
    "cyclotomic.galois_large_us": ("cyclotomic.galois_large", 1e6),
    "cyclotomic.descend_ms": ("cyclotomic.descend", 1e3),
    "algebra.gae_mul_cn_us": ("algebra.gae_mul_cn", 1e6),
    "algebra.gae_mul_s4_us": ("algebra.gae_mul_s4", 1e6),
    "algebra.wedderburn_block_us": ("algebra.wedderburn_block", 1e6),
    "algebra.nrd_ms": ("algebra.nrd", 1e3),
    "algebra.nrd_s4_2x2_ms": ("algebra.nrd_s4_2x2", 1e3),
    "algebra.coords_us": ("algebra.coords", 1e6),
    "algebra.matrix_from_blocks_ms": ("algebra.matrix_from_blocks", 1e3),
    "algebra.adjoint_star_ms": ("algebra.adjoint_star", 1e3),
    "linalg.mat_det_us": ("linalg.mat_det", 1e6),
    "linalg.mat_inverse_us": ("linalg.mat_inverse", 1e6),
    "linalg.mat_rank_us": ("linalg.mat_rank", 1e6),
    "lattices.hnf_ms": ("lattices.hnf", 1e3),
    "lattices.snf_ms": ("lattices.snf", 1e3),
    "exterior.wedge_ms": ("exterior.wedge", 1e3),
    "exterior.pair_ms": ("exterior.pair", 1e3),
    "exterior.epsilon_ms": ("exterior.epsilon", 1e3),
    "detfun.ses_iso_ms": ("detfun.ses_iso", 1e3),
    "fitting.xi_approx_S3_s": ("fitting.xi_approx_S3", 1.0),
    "fitting.xi_approx_D4_s": ("fitting.xi_approx_D4", 1.0),
    "fitting.xi_approx_Q8_s": ("fitting.xi_approx_Q8", 1.0),
    "fitting.delta_check_ms": ("fitting.delta_check", 1e3),
    "fitting.fit_matrix_ms": ("fitting.fit_matrix", 1e3),
    "fitting.fit_oracle_ms": ("fitting.fit_oracle", 1e3),
    "cyclo.relative_norm_ms": ("cyclo.relative_norm", 1e3),
    "cyclo.distribution_check_ms": ("cyclo.distribution_check", 1e3),
}


def unit_of(metric):
    return metric.rsplit("_", 1)[1]


# -- probes -------------------------------------------------------------------

def probe_irreps(tr, rng, ref):
    for name in ("C12", "A4", "S4"):
        with tr.span("reps.irreps"):
            irreps(group_from_catalog(name))
    return []


def probe_scalars(tr, rng, ref):
    errs = []
    for _ in range(100):
        x = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        y = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        tr.call("cyclotomic.mul_n1", cyclo_make(1, [x]).__mul__, cyclo_make(1, [y]))
    for _ in range(60):
        x = cyclo_make(12, [rng.randrange(-3, 4) for _ in range(4)])
        y = cyclo_make(12, [rng.randrange(-3, 4) for _ in range(4)])
        tr.call("cyclotomic.mul_n12", x.__mul__, y)
        if not x.is_zero() and tr.call("cyclotomic.inverse_n12", x.inverse) * x != 1:
            errs.append("inverse at conductor 12")
    return errs


# every admissible (f, l) with f <= 30, l <= 13, and the direct-convention
# guard pairs f <= 12, l <= 7
CYCLO_PAIRS = ([(f, l, "inverse") for f in range(2, 31) for l in range(2, 14)
                if is_prime(l) and f % l]
               + [(f, l, "direct") for f in range(2, 13) for l in range(2, 8)
                  if is_prime(l) and f % l])


def replay_relative_norm(tr, f, l):
    """relative_norm(1 - zeta_fl, f) against Galois images, products and descend."""
    n = f * l
    x = 1 - CycloNum.zeta(n)
    want = tr.call("cyclo.relative_norm", relative_norm, x, f)
    acc = x
    for a in range(2, n + 1):
        if a % f == 1 % f and math.gcd(a, n) == 1:
            y = tr.call("cyclotomic.galois_large", galois_apply, a, x)
            acc = tr.call("cyclotomic.mul_large", acc.__mul__, y)
    down = tr.call("cyclotomic.descend", descend, acc, f)
    if isinstance(down, NotInSubfield) or down != want:
        return ["relative_norm != descended product of conjugates"]
    return []


def probe_cyclo(tr, rng, ref):
    """One large-conductor norm relation, replayed, and one guard pair."""
    f, l, _ = rng.choice([p for p in CYCLO_PAIRS if p[2] == "inverse" and p[0] * p[1] >= 200])
    errs = replay_relative_norm(tr, f, l)
    for f, l, conv in ((f, l, "inverse"), rng.choice([p for p in CYCLO_PAIRS if p[2] == "direct"])):
        res = tr.call("cyclo.distribution_check", distribution_check, f, l, conv)
        if res.passed != ref["distribution"][f"{f}/{l}/{conv}"]:
            errs.append("distribution verdict != recorded reference")
    return errs


def probe_cn(tr, rng, ref):
    G = group_from_catalog(f"C{rng.randrange(5, 9)}")
    for _ in range(50):
        tr.call("algebra.gae_mul_cn", rand_gae(rng, G, 5).__mul__, rand_gae(rng, G, 5))
    return []


def probe_s4(tr, rng, ref):
    """The baseline rows: an integral S4 product and nrd of an S4 2x2."""
    G = group_from_catalog("S4")
    for _ in range(30):
        tr.call("algebra.gae_mul_s4", rand_gae(rng, G, 3).__mul__, rand_gae(rng, G, 3))
    for _ in range(5):
        tr.call("algebra.nrd_s4_2x2", nrd, rand_gam(rng, G, 2, 2, 1))
    return []


def probe_split(tr, rng, ref):
    wl = SplitSide(ref)
    out, errs = {}, []
    for gname in ("S3", "D4"):
        for case in wl._cases(rng, rng, gname, 2, f"{gname}/2/probe"):
            errs += case.run(tr, out)
    return errs + wl.replay(tr, out, rng)


def probe_fit(tr, rng, ref):
    wl = AbelianFitting(ref)
    errs = []
    for case in wl.block(rng.randrange(10 ** 6), 0):
        if case.cid.startswith(("C4/3x2/", "C6/2x2/")):
            errs += case.run(tr, {})
    return errs


def probe_delta(tr, rng, ref):
    G = group_from_catalog("S3")
    v = tr.call("fitting.delta_check", delta_check, CentralElement.from_rational(G, G.order),
                G, DELTA_BUDGET)
    return [] if v.kind == ref["delta"]["S3"] else ["delta verdict != reference"]


def probe_xi(tr, rng, ref):
    errs = []
    for name in WhiteheadOrder.groups:
        xi = tr.call(f"fitting.xi_approx_{name}", xi_approx, group_from_catalog(name), XI_BUDGET)
        if lattice_record(xi) != ref["xi"][name]:
            errs.append("xi lattice != recorded reference")
    return errs


PROBES = (
    (("reps.irreps",), probe_irreps),
    (("cyclotomic.mul_n1", "cyclotomic.mul_n12", "cyclotomic.inverse_n12"), probe_scalars),
    (("cyclotomic.mul_large", "cyclotomic.galois_large", "cyclotomic.descend",
      "cyclo.relative_norm", "cyclo.distribution_check"), probe_cyclo),
    (("algebra.gae_mul_cn",), probe_cn),
    (("algebra.gae_mul_s4", "algebra.nrd_s4_2x2"), probe_s4),
    (("algebra.wedderburn_block", "linalg.mat_det", "algebra.nrd", "algebra.coords",
      "algebra.matrix_from_blocks", "algebra.adjoint_star", "linalg.mat_inverse",
      "linalg.mat_rank", "lattices.hnf", "lattices.snf", "exterior.wedge", "exterior.pair",
      "exterior.epsilon", "detfun.ses_iso"), probe_split),
    (("fitting.fit_matrix", "fitting.fit_oracle"), probe_fit),
    (("fitting.delta_check",), probe_delta),
    (("fitting.xi_approx_S3", "fitting.xi_approx_D4", "fitting.xi_approx_Q8"), probe_xi),
)


def run_probes(tr, rng, ref):
    """Run each probe whose spans the workload has not produced itself."""
    have = {s[0] for s in tr.spans}
    errs = []
    tr.source = "probe"
    for names, fn in PROBES:
        if not set(names) <= have:
            tr.case = f"probe/{fn.__name__}"
            errs += fn(tr, rng, ref)
    tr.case = None
    return errs


def per_layer_metrics(tr, overhead_s):
    """Every per-layer metric, plus where each came from."""
    metrics, sources = {}, {}
    for metric, (span, scale) in PER_CALL.items():
        ds, src = tr.durations(span)
        metrics[metric] = {"value": statistics.median(ds) * scale, "unit": unit_of(metric)}
        sources[metric] = {"source": src, "calls": len(ds), "busy_s": sum(ds)}
    nrd_calls, src = tr.durations("algebra.nrd")
    metrics["algebra.nrd_calls"] = {"value": len(nrd_calls), "unit": "count"}
    metrics["lattices.hnf_rows"] = {"value": tr.total("lattices.hnf_rows"), "unit": "count"}
    irr, src = tr.durations("reps.irreps")
    metrics["reps.irreps_ms"] = {"value": sum(irr) * 1e3, "unit": "ms"}
    sources["reps.irreps_ms"] = {"source": src, "calls": len(irr), "busy_s": sum(irr)}
    selfs = tr.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": selfs.get(layer, 0.0), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics, sources
