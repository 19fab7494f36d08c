"""Benchmark of the grax workbench: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: abelian-fitting, whitehead-order, split-side (see
perfbench/README.md for why each exists and why split-side is not listed
in BENCHMARK.json).  The run starts fresh single-threaded interpreters:
several that only set up, for ``setup_s``, and one that sets up and then
runs the workload's cases for ``--seconds``, checking every output
exactly.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the run record (machine, load, seed,
tail percentile, failures); the same record is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up-only processes, half before and half after the measured one, so
# that their median spans the run rather than one moment of a busy machine
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def start_worker(args, setup_only):
    """Start a worker; return it with its set-up time, fresh process to READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed, so that every run iterates sets and dicts of
    # strings in the same order and so does the same work
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc):
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return rest


def tail(times):
    """Value with exactly ten cases above it: the highest percentile that
    has at least ten samples beyond it."""
    s = sorted(times)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "grax" / "__init__.py").is_file():
        print(f"no grax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "cpu": cpu_model(),
              "loadavg_start": loadavg()}
    def setup_only():
        proc, setup = start_worker(args, setup_only=True)
        finish_worker(proc)
        return setup

    try:
        setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
        proc, setup = start_worker(args, setup_only=False)
        setups.append(setup)
        res = json.loads(finish_worker(proc).strip().splitlines()[-1])
        setups += [setup_only() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    except (RuntimeError, ValueError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    record["loadavg_end"] = loadavg()

    # a case's time is the mean of its samples, one per pass: the machine
    # changes speed by up to 1.6 times for seconds to minutes at a time, and
    # the mean follows its average speed over the run with the least spread
    times = [statistics.fmean(ts) for ts, _, _ in res["times"]]
    passed = sum(ok for _, ok, _ in res["times"])
    tail_s, tail_pct = tail(times)
    record.update(passes=res["passes"], cases=len(times),
                  case_time_s=sum(times), failed_ratio=res["failed"] / res["attempted"],
                  case_tail_percentile=round(tail_pct, 2), failures=res["failures"],
                  setup_samples_s=setups,
                  slowest_cases=sorted(([c, t] for t, (_, _, c) in zip(times, res["times"])),
                                       key=lambda x: -x[1])[:5])
    if args.trace:
        metrics = res["layer_metrics"]
        record["layer_sources"] = res["layer_sources"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_cases_per_s": {"value": passed / sum(times), "unit": "cases/s"},
            "case_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "case_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    out = {"correct": res["failed"] == 0, "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, **out}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
