"""Record the exact reference outputs that every benchmark run compares with.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the HNF basis and denominator of xi for
S3, D4 and Q8; the delta verdicts; the distribution-relation verdicts; and
a fingerprint (HNF basis and denominator) of every Fitting lattice in the
two input pools.  Re-record only on purpose, for an intended change of
results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from grax.algebra import CentralElement  # noqa: E402
from grax.cyclo import distribution_check  # noqa: E402
from grax.fitting import delta_check, fit_classical_oracle, fit_matrix, xi_approx  # noqa: E402
from grax.groups import group_from_catalog  # noqa: E402

from layers import CYCLO_PAIRS  # noqa: E402
from workloads import (DELTA_BUDGET, FIT_BUDGET, XI_BUDGET, AbelianFitting,  # noqa: E402
                       WhiteheadOrder, lattice_digest, lattice_record)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    ref = {"xi": {}, "delta": {}, "distribution": {}, "fit_abelian": {}, "fit_whitehead": {}}
    xis = {}
    for name in WhiteheadOrder.groups:
        G = group_from_catalog(name)
        xis[name] = xi_approx(G, XI_BUDGET)
        ref["xi"][name] = lattice_record(xis[name])
        x = CentralElement.from_rational(G, G.order)
        ref["delta"][name] = delta_check(x, G, DELTA_BUDGET).kind
        for dp, d, _ in WhiteheadOrder.SHAPES:
            for idx in range(WhiteheadOrder.POOL):
                M = WhiteheadOrder.pool_matrix(name, dp, d, idx)
                for a in (0, 1):
                    ref["fit_whitehead"][f"{name}/{dp}x{d}/{idx}/{a}"] = lattice_digest(
                        fit_matrix(M, a, FIT_BUDGET, xis[name]))
    for f, l, conv in CYCLO_PAIRS:
        ref["distribution"][f"{f}/{l}/{conv}"] = distribution_check(f, l, conv).passed
    for n, dp, d in AbelianFitting.CELLS:
        for idx in range(AbelianFitting.POOL):
            M = AbelianFitting.pool_matrix(n, dp, d, idx)
            for a in (0, 1, 2):
                L = fit_matrix(M, a, FIT_BUDGET)
                if L != fit_classical_oracle(M, a):
                    raise SystemExit(f"fit_matrix disagrees with the oracle at C{n}/{dp}x{d}/{idx}")
                ref["fit_abelian"][f"C{n}/{dp}x{d}/{idx}/{a}"] = lattice_digest(L)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
