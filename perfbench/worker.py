"""One measured process: set up, run the workload's cases, report as JSON.

Started by run.py in a fresh interpreter, so that the lru_caches of grax
(irreps, Galois permutations, cyclotomic reduction rows) are paid inside
the run and never carried over from another run.  Prints ``READY`` once
set-up is done and, at the end, one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import NullTracer, Tracer  # noqa: E402


def run_case(case, tr, out):
    tr.case = case.cid
    t = perf_counter()
    try:
        with tr.span("bench.case"):
            errs = case.run(tr, out)
    except Exception as e:  # a raising case is a failed case; keep measuring
        errs = [f"raised {type(e).__name__}: {e}"]
    return perf_counter() - t, errs


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tr = Tracer() if args.trace else NullTracer()
    tr.source = "setup"
    from grax.groups import group_from_catalog
    from grax.reps import irreps
    from workloads import WORKLOADS, rng_for
    import layers

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text())
    wl = WORKLOADS[args.workload](ref)
    for name in wl.groups:
        with tr.span("reps.irreps"):
            irreps(group_from_catalog(name))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    null = NullTracer()
    tr.source = "case"
    failures, out = [], {}
    attempted = failed = 0
    overhead = 0.0
    cases = wl.block(args.seed, 0)
    samples = [[] for _ in cases]
    ok = [True] * len(cases)
    # Every pass runs every case once, so the passes spread each case's
    # samples over the run.  Passes go on while the next one should end
    # within 1.1 --seconds; a traced run makes one.
    passes, t0 = 0, perf_counter()
    while passes == 0 or (not args.trace and
                          (perf_counter() - t0) * (passes + 1) / passes <= 1.1 * args.seconds):
        passes += 1
        for i, case in enumerate(cases):
            dt, errs = run_case(case, null, out)
            samples[i].append(dt)
            ok[i] = ok[i] and not errs
            attempted, failed = attempted + 1, failed + bool(errs)
            failures += [[case.cid, e] for e in errs]
            if args.trace:
                # the same case again, traced: the difference is the overhead
                dt_traced, errs = run_case(case, tr, out)
                overhead += dt_traced - dt
                attempted, failed = attempted + 1, failed + bool(errs)
                failures += [[case.cid, e] for e in errs]
    times = [[s, k, case.cid] for s, k, case in zip(samples, ok, cases)]

    result = {"times": times, "passes": passes}
    if args.trace:
        tr.case, tr.source = None, "replay"
        rng = rng_for(args.seed, "replay")
        checks = []
        try:
            checks += wl.replay(tr, out, rng)
            checks += layers.run_probes(tr, rng, ref)
        except Exception as e:
            checks.append(f"raised {type(e).__name__}: {e}")
        attempted, failed = attempted + 1, failed + bool(checks)
        failures += [["replay", e] for e in checks]
        metrics, sources = layers.per_layer_metrics(tr, overhead)
        result.update(layer_metrics=metrics, layer_sources=sources)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "case", "source"],
             "spans": tr.spans}))
    result.update(attempted=attempted, failed=failed, failures=failures[:20],
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
