"""Command-line front end.

Subcommands:

* ``gen``        write a synthetic quadratic problem file
* ``run``        run a solver on a problem file, write a certified trace CSV
* ``certify``    re-certify a trace from the iterates its run stored
* ``identities`` run CG for dim steps and check the exact-arithmetic identities
* ``perturb``    sweep noise magnitudes and report where certification breaks

Exit status: 0 on success (for ``certify``/``identities``, success includes
"no violations"), 1 on runtime or input errors and on detected violations,
2 on usage errors.  Identical invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import GradcertError
from .generate import LAYOUTS, SpectrumSpec
from .perturb import sweep
from .potential import certify, hs_identity_battery
from .problems import load_problem, make_quadratic_problem
from .serialize import write_json
from .solvers import METHOD_FAMILY, run
from .traces import check_trace_claims, read_trace_csv, read_trace_iterates, write_trace_csv

METHOD_NAMES = {
    "ag": "ag",
    "cg": "cg_classic",
    "ag-unified": "ag_unified",
    "cg-unified": "cg_unified",
}


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    """A seed in [0, 2**64): SplitMix64 would reduce a larger one to another seed."""
    value = _int_at_least(0)(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"must be < 2**64, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Certified first-order solvers for strongly convex problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a quadratic problem file")
    p_gen.add_argument("--dim", type=_int_at_least(1), required=True)
    p_gen.add_argument("--ell", type=_positive_float, required=True, help="smallest eigenvalue")
    p_gen.add_argument("--lip", type=_positive_float, required=True, help="largest eigenvalue")
    p_gen.add_argument("--layout", choices=LAYOUTS, default="log_uniform")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", default="problem.json")

    p_run = sub.add_parser("run", help="run a solver and write a certified trace")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--method", choices=sorted(METHOD_NAMES), required=True)
    p_run.add_argument("--iters", type=_int_at_least(1), default=1000)
    p_run.add_argument("--out", default="trace.csv")

    p_cert = sub.add_parser("certify", help="re-certify a trace from its stored iterates")
    p_cert.add_argument("trace", help="trace CSV written by `run`, its iterates file beside it")
    p_cert.add_argument("--problem", required=True)
    p_cert.add_argument("--out", default=None, help="optional JSON report path")

    p_id = sub.add_parser("identities", help="check CG conservation identities")
    p_id.add_argument("--problem", required=True)
    p_id.add_argument("--out", default=None, help="optional JSON report path")

    p_pb = sub.add_parser("perturb", help="noise sweep: where does the chain break")
    p_pb.add_argument("--problem", required=True)
    p_pb.add_argument("--eta", required=True, help="comma-separated noise magnitudes")
    p_pb.add_argument("--iters", type=_int_at_least(1), default=600)
    p_pb.add_argument("--seed", type=_seed, default=0)
    p_pb.add_argument("--out", default="perturb.json")

    return parser


def _load_certifiable(path) -> tuple:
    spec = load_problem(path)
    obj = spec.objective
    if obj.minimizer is None:
        raise GradcertError(
            f"{path} stores no x_star; certification needs the minimizer"
        )
    return spec, obj


def _failed_check(report) -> str:
    """The check behind report.first_violation: the chain, unless only CG's gap telescoping failed."""
    k = report.first_violation
    only_telescoping = k == report.first_telescope_violation and report.step_passes[k]
    return "gap telescoping" if only_telescoping else "certificate chain"


def cmd_gen(args) -> int:
    spectrum = SpectrumSpec(
        dim=args.dim, ell=args.ell, lip=args.lip, layout=args.layout, seed=args.seed
    )
    problem = make_quadratic_problem(spectrum)
    problem.save(args.out)
    print(
        f"wrote {args.out}: quadratic dim={args.dim} kappa={args.lip / args.ell:g} "
        f"layout={args.layout} seed={args.seed}"
    )
    return 0


def cmd_run(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    method = METHOD_NAMES[args.method]
    family = METHOD_FAMILY[method]
    if family == "cg" and spec.kind != "quadratic":
        raise GradcertError(f"--method {args.method} applies to quadratic problems only")
    if family == "ag" and obj.lip == obj.ell:
        print(
            "warning: L == ell, momentum degenerates; running plain gradient "
            "descent and certifying at the common constant",
            file=sys.stderr,
        )
    # Past ~1e-12 of the initial gap the iterates stagnate in double
    # precision and contraction checks report that, not a method bug.
    trace = run(obj, method, spec.x0, args.iters, 1e-12 * obj.f_gap(spec.x0))
    if trace.stop_reason == "diverged":
        cause = (
            f"(p'Ap overflowed); x0 of {args.problem} is too large for float64"
            if family == "cg"
            else f"(||x - x*|| no longer finite); is L = {obj.lip:g} below the largest "
            f"curvature of {args.problem}?"
        )
        raise GradcertError(f"{args.method} diverged after {len(trace) - 1} iterations {cause}")
    report = certify(trace, obj)
    write_trace_csv(args.out, trace, obj, report)
    n = len(trace)
    print(
        f"wrote {args.out}: {args.method} ran {n - 1} iterations "
        f"(stop: {trace.stop_reason}), final f_gap {report.f_gaps[-1]:.3e}"
    )
    if report.first_violation is not None:
        print(
            f"warning: {_failed_check(report)} fails at step {report.first_violation}",
            file=sys.stderr,
        )
    return 0


def cmd_certify(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    columns = read_trace_csv(args.trace)
    n = len(columns["k"])
    if n == 0:
        raise GradcertError(f"{args.trace} has no data rows")
    trace = read_trace_iterates(args.trace)
    if trace.xs.shape != (n, obj.dim):
        raise GradcertError(
            f"iterates of {args.trace} have shape {trace.xs.shape}, "
            f"expected ({n}, {obj.dim}) for its rows and {args.problem}"
        )
    if not np.array_equal(trace.xs[0], spec.x0):
        raise GradcertError(f"row 0 of {args.trace} does not start at the x0 of {args.problem}")

    # certify() recomputes everything from the iterates (and on CG checks
    # the recurrence produced them); the CSV's cells are only claims.
    report = certify(trace, obj)
    check_trace_claims(args.trace, columns, trace, obj, report)

    doc = {
        "trace": args.trace,
        "problem": args.problem,
        "method": report.method,
        "iterates": n,
        "C": report.c_value,
        "tol_cert": report.tol_cert,
        "first_violation": report.first_violation,
        "first_telescope_violation": report.first_telescope_violation,
        "theorem1_ok": report.theorem1_ok,
        "daniel_ok": report.daniel_ok,
    }
    if args.out is not None:
        write_json(args.out, doc)
    if report.first_violation is None:
        print(f"certificate chain holds over {n - 1} steps (C={report.c_value:.12g})")
        return 0
    print(f"{_failed_check(report)} violated at step {report.first_violation}")
    return 1


def cmd_identities(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    if spec.kind != "quadratic":
        raise GradcertError("identity checks apply to quadratic problems only")
    trace = run(obj, "cg_classic", spec.x0, obj.dim, -math.inf)
    battery = hs_identity_battery(trace, obj)
    doc = {
        "iterates": battery.n,
        "tol_id": battery.tol_id,
        "ok": battery.ok,
        "max_violations": battery.max_violations,
        "first_failures": battery.first_failures,
        "min_weighted_bound_slack": battery.min_weighted_bound_slack,
    }
    if args.out is not None:
        write_json(args.out, doc)
    residuals = dict(battery.max_violations)
    rho = residuals.pop("rho_alignment")
    print(
        f"{len(trace) - 1} CG steps: worst identity residual {max(residuals.values()):.3e} "
        f"(tol {battery.tol_id:g}), rho alignment {rho:.3e}"
    )
    print("identities hold" if battery.ok else "identity violation detected")
    return 0 if battery.ok else 1


def _parse_etas(text: str) -> list:
    try:
        etas = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise GradcertError(f"bad --eta list {text!r}") from None
    if not etas or not all(0.0 <= e < math.inf for e in etas):
        raise GradcertError("--eta needs a comma-separated list of finite magnitudes >= 0")
    return etas


def cmd_perturb(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    if spec.kind != "quadratic":
        raise GradcertError("noise injection applies to quadratic problems only")
    etas = _parse_etas(args.eta)
    reports = sweep(obj, obj.minimizer, etas, [args.seed], args.iters, x0=spec.x0)
    write_json(
        args.out,
        [
            {
                "eta": r.eta,
                "seed": r.seed,
                "first_violation": r.first_violation,
                "iterations_run": r.iterations_run,
                "stop_reason": r.stop_reason,
                "max_drift": r.max_drift,
                "psi": r.psis,
            }
            for r in reports
        ],
    )
    for r in reports:
        where = "none" if r.first_violation is None else str(r.first_violation)
        print(
            f"eta={r.eta:g} seed={r.seed}: first_violation={where} "
            f"({r.iterations_run} iterations, stop: {r.stop_reason})"
        )
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "certify": cmd_certify,
    "identities": cmd_identities,
    "perturb": cmd_perturb,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GradcertError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
