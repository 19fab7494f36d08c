"""Command-line front end.

Every command reads and writes one structured-text (JSON) format: exact
rationals as "p/q" strings, group elements as integer labels, matrices as
{group, rows, cols, entries}.  Randomized suites record their seed and are
byte-reproducible (suppress the timestamp with --no-timestamp).

Exit codes: 0 success / all checks pass, 1 a mathematical relation or
invariant failed (a minimized witness is printed), 2 usage error, a report
that cannot be written (to --out or to stdout) included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from grax import serde
from grax.algebra import CentralElement, GroupAlgebraMatrix, adjoint_star, nrd
from grax.cyclo import distribution_check, euler_family_check
from grax.detfun import det_free, ses_iso, tensor, two_term_nrd
from grax.exterior import (epsilon_from_matrix, epsilon_vanishing, pair,
                           rubin_membership, wedge_elements, wedge_homs)
from grax.fitting import (Budget, annihilation_check, delta_check,
                          fit_classical_oracle, fit_matrix, xi_approx)
from grax.groups import group_from_catalog
from grax.reps import irreps
from grax.suites import SUITES, run_suite

SCHEMA = "grax-report/1"
BUDGET_ENV = "GRAX_BUDGET"


class UsageError(Exception):
    pass


class MathFailure(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _load_json_arg(value):
    """Inline JSON, or @path to read a file."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def _budget_from(args) -> Budget:
    base = {}
    for obj in (json.loads(os.environ.get(BUDGET_ENV) or "{}"),
                _load_json_arg(args.budget) if args.budget else {}):
        if not isinstance(obj, dict):
            raise UsageError(f"a budget is a JSON object, not {obj!r}")
        base.update(obj)
    return Budget.from_dict(base)


def _matrix_of(args, G, attr="matrix"):
    obj = _load_json_arg(getattr(args, attr))
    return serde.json_to_gam(obj, G)


def _report(args, command, result, status) -> str:
    """The report's text; written to --out here, where a failure to write
    it is an OSError that main turns into a usage error."""
    doc = {"schema": SCHEMA, "command": command, "status": status, "result": result,
           "seed": args.seed}
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# -- command handlers ---------------------------------------------------------

def cmd_group(args):
    G = group_from_catalog(args.group)
    reps = irreps(G)
    return {"group": serde.group_to_json(G),
            "abelian": G.is_abelian(),
            "conjugacy_classes": [list(c) for c in G.conjugacy_classes],
            "irreducible_degrees": [r.degree for r in reps]}


def cmd_nrd(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G)
    return serde.central_to_json(nrd(M))


def cmd_adjoint(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G)
    star = adjoint_star(M)
    n = nrd(M)
    scaled = GroupAlgebraMatrix.identity(G, M.rows) * n.to_group_algebra()
    if M * star != scaled or star * M != scaled:
        raise MathFailure("adjoint identity violated", {"matrix": serde.gam_to_json(M)})
    return {"adjoint": serde.gam_to_json(star), "nrd": serde.central_to_json(n)}


def cmd_xi(args):
    G = group_from_catalog(args.group)
    lat = xi_approx(G, _budget_from(args))
    return serde.lattice_to_json(lat)


def cmd_fit(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G)
    budget = _budget_from(args)
    lat = fit_matrix(M, args.a, budget)
    out = {"fitting": serde.lattice_to_json(lat)}
    if args.oracle_check:
        if not G.is_abelian():
            raise UsageError("--oracle-check applies to abelian groups only")
        oracle = fit_classical_oracle(M, args.a)
        out["oracle"] = serde.lattice_to_json(oracle)
        if lat != oracle:
            raise MathFailure("fitting lattice disagrees with the classical oracle", out)
    return out


def cmd_annihilate(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G)
    if args.x == "order":
        x = CentralElement.from_rational(G, G.order)
    else:
        x = serde.json_to_central(_load_json_arg(args.x), G)
    verdict = delta_check(x, G, _budget_from(args))
    ok = annihilation_check(M, x)
    result = {"delta": serde.verdict_to_json(verdict), "annihilates": ok}
    if not ok:
        raise MathFailure("annihilation fails", result)
    return result


def cmd_wedge(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G, "elements")
    return serde.exterior_to_json(wedge_elements(M))


def cmd_pair(args):
    G = group_from_catalog(args.group)
    homs = _matrix_of(args, G, "homs")
    elements = _matrix_of(args, G, "elements")
    value = pair(wedge_homs(homs), wedge_elements(elements))
    if isinstance(value, CentralElement):
        return {"degree": 0, "value": serde.central_to_json(value)}
    return serde.exterior_to_json(value)


def cmd_epsilon(args):
    G = group_from_catalog(args.group)
    M = _matrix_of(args, G)
    eps = epsilon_from_matrix(M)
    vanishing = epsilon_vanishing(M, eps)
    return {"epsilon": serde.exterior_to_json(eps),
            "nonzero_components": [nz for nz, _ in vanishing]}


def cmd_rubin(args):
    G = group_from_catalog(args.group)
    gens = _matrix_of(args, G, "gens")
    eps_source = _matrix_of(args, G, "element")
    xe = wedge_elements(eps_source)
    xi = xi_approx(G, _budget_from(args))
    verdict = rubin_membership(xe, gens, xi)
    return serde.verdict_to_json(verdict)


def cmd_det(args):
    G = group_from_catalog(args.group)
    if args.op in ("free", "tensor"):
        obj = det_free(_matrix_of(args, G, "basis"))
        if args.op == "tensor":
            obj = tensor(obj, det_free(_matrix_of(args, G, "basis2")))
        return {"generator": serde.central_to_json(obj.generator_central()),
                "grading": list(obj.grading)}
    if args.op == "ses":
        iso = ses_iso(_matrix_of(args, G, "theta"),
                      _matrix_of(args, G, "phi"),
                      _matrix_of(args, G, "section"))
        return {"factor": serde.central_to_json(iso.factor),
                "sub_rank": iso.sub_rank, "quot_rank": iso.quot_rank}
    # two-term: argparse holds --op to its choices
    kwargs = {}
    for name in ("comparison", "ker_section", "cok_section"):
        if getattr(args, name):
            kwargs[name] = _matrix_of(args, G, name)
    value = two_term_nrd(_matrix_of(args, G, "theta"), **kwargs)
    return {"nrd": serde.central_to_json(value)}


def cmd_cyclo(args):
    if (args.f is None) != (args.ell is None):
        raise UsageError("--f needs --ell" if args.ell is None else "--ell needs --f")
    if args.f is not None:
        row = distribution_check(args.f, args.ell, args.convention)
        result = {"rows": [_cyclo_row(row)]}
        if not row.passed:
            raise MathFailure("distribution relation fails", result)
        return result
    rows = euler_family_check(args.fmax, args.ellmax, args.convention)
    result = {"rows": [_cyclo_row(r) for r in rows],
              "pairs": len(rows), "all_pass": all(r.passed for r in rows)}
    if not result["all_pass"]:
        raise MathFailure("a distribution relation fails", result)
    return result


def _cyclo_row(r):
    return {"f": r.conductor, "ell": r.prime,
            "lhs": serde.cyclo_to_json(r.lhs), "rhs": serde.cyclo_to_json(r.rhs),
            "verdict": "pass" if r.passed else "fail"}


def cmd_suite(args):
    if not 0 < args.scale <= 1:  # NaN fails the comparison too
        raise UsageError(f"--scale must be a number in (0, 1], not {args.scale}")
    budget = _budget_from(args)
    names = list(SUITES) if args.name == "all" else [args.name]
    if any(n not in SUITES for n in names):
        raise UsageError(f"unknown suite {args.name!r}; choose from "
                         f"{', '.join(SUITES)} or 'all'")
    results = []
    failed = False
    for n in names:
        r = run_suite(n, seed=args.seed, budget=budget, scale=args.scale)
        entry = {"suite": r.name, "seed": r.seed, "cases": r.cases,
                 "passed": r.passed, "failures": r.failures, "notes": r.notes}
        if not args.no_timestamp:
            entry["elapsed_s"] = round(r.elapsed, 3)
        results.append(entry)
        failed = failed or not r.passed
    result = {"suites": results}
    if failed:
        raise MathFailure("suite failures", result)
    return result


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="grax",
        description="exact group-ring algebra workbench (reduced norms, "
                    "Fitting invariants, exterior powers, cyclotomic relations)")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, group=True, budget=False):
        if group:
            p.add_argument("--group", required=True, help="catalog name, e.g. S3, C6, D4")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reports")
        p.add_argument("--out", help="also write the report to a file")
        if budget:
            p.add_argument("--budget", help="JSON budget overrides (or @file)")

    p = sub.add_parser("group", help="catalog group data")
    common(p, group=False)
    p.add_argument("--name", dest="group", required=True)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("nrd", help="reduced norm of a square matrix")
    common(p)
    p.add_argument("--matrix", required=True, help="matrix JSON or @file")
    p.set_defaults(fn=cmd_nrd)

    p = sub.add_parser("adjoint", help="generalized adjoint with identity check")
    common(p)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("xi", help="budgeted Whitehead-order lattice")
    common(p, budget=True)
    p.set_defaults(fn=cmd_xi)

    p = sub.add_parser("fit", help="non-commutative Fitting invariant lattice")
    common(p, budget=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--oracle-check", action="store_true",
                   help="compare against the classical minors ideal (abelian)")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("annihilate", help="central annihilation check")
    common(p, budget=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", default="order",
                   help="central element JSON, or 'order' for |G| * 1")
    p.set_defaults(fn=cmd_annihilate)

    p = sub.add_parser("wedge", help="wedge of row elements")
    common(p)
    p.add_argument("--elements", required=True, help="matrix whose rows are wedged")
    p.set_defaults(fn=cmd_wedge)

    p = sub.add_parser("pair", help="duality pairing of hom and element wedges")
    common(p)
    p.add_argument("--homs", required=True)
    p.add_argument("--elements", required=True)
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("epsilon", help="canonical kernel element of a presentation")
    common(p)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_epsilon)

    p = sub.add_parser("rubin", help="Rubin-lattice membership verdict")
    common(p, budget=True)
    p.add_argument("--element", required=True,
                   help="matrix whose row wedge is tested")
    p.add_argument("--gens", required=True, help="lattice generator rows")
    p.set_defaults(fn=cmd_rubin)

    p = sub.add_parser("det", help="graded determinant calculus")
    common(p)
    p.add_argument("--op", required=True, choices=["free", "tensor", "ses", "two-term"])
    p.add_argument("--basis")
    p.add_argument("--basis2")
    p.add_argument("--theta")
    p.add_argument("--phi")
    p.add_argument("--section")
    p.add_argument("--comparison")
    p.add_argument("--ker-section", dest="ker_section")
    p.add_argument("--cok-section", dest="cok_section")
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("cyclo", help="cyclotomic distribution relations")
    common(p, group=False)
    p.add_argument("--f", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--fmax", type=int, default=30)
    p.add_argument("--ellmax", type=int, default=13)
    p.add_argument("--convention", choices=["inverse", "direct"], default="inverse")
    p.set_defaults(fn=cmd_cyclo)

    p = sub.add_parser("suite", help="seeded property suites")
    common(p, group=False, budget=True)
    p.add_argument("--name", required=True,
                   help=f"one of {', '.join(SUITES)}, or 'all'")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the default case counts by a factor in (0, 1]")
    p.set_defaults(fn=cmd_suite)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            result, status, code = args.fn(args), "pass", 0
        except MathFailure as exc:
            result, status, code = {"error": str(exc), "witness": exc.witness}, "fail", 1
        text = _report(args, args.command, result, status)
    # OSError: an @path that cannot be read or an --out that cannot be written
    except (UsageError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull, so that the flush at exit finds nothing
        # left to write; a closed pipe (the reader has gone) keeps the exit
        # code, any other failure is one line on stderr
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"usage error: cannot write the report to stdout: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
