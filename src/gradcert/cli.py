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
import math
import sys

import numpy as np

from .errors import GradcertError
from .generate import LAYOUTS, SpectrumSpec
from .objective import _count, _positive
from .perturb import sweep
from .potential import TELESCOPING, certify, hs_identity_battery
from .problems import load_problem, make_quadratic_problem
from .rng import _seed_word
from .serialize import write_json
from .solvers import METHOD_FAMILY, STOP_GAP_REL, run
from .traces import check_trace_claims, read_trace_csv, read_trace_iterates, write_trace_csv

METHOD_NAMES = {
    "ag": "ag",
    "cg": "cg_classic",
    "ag-unified": "ag_unified",
    "cg-unified": "cg_unified",
}


def _checked(parse, rule, *names):
    """An argument type: text read by parse (int or float), then the library's
    own rule for the value, whose ValueError becomes a usage error (exit 2)."""
    noun = "an integer" if parse is int else "a number"

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        try:
            return rule(value, *names)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Certified first-order solvers for strongly convex problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a quadratic problem file")
    p_gen.add_argument("--dim", type=_checked(int, _count, "dim"), required=True)
    p_gen.add_argument("--ell", type=_checked(float, _positive, "ell"), required=True,
                       help="smallest eigenvalue")
    p_gen.add_argument("--lip", type=_checked(float, _positive, "lip"), required=True,
                       help="largest eigenvalue")
    p_gen.add_argument("--layout", choices=LAYOUTS, default="log_uniform")
    p_gen.add_argument("--seed", type=_checked(int, _seed_word), default=0)
    p_gen.add_argument("--out", default="problem.json")

    p_run = sub.add_parser("run", help="run a solver and write a certified trace")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--method", choices=sorted(METHOD_NAMES), required=True)
    p_run.add_argument("--iters", type=_checked(int, _count, "iters"), default=1000)
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
    p_pb.add_argument("--iters", type=_checked(int, _count, "iters"), default=600)
    p_pb.add_argument("--seed", type=_checked(int, _seed_word), default=0)
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
    trace = run(obj, method, spec.x0, args.iters, STOP_GAP_REL * obj.f_gap(spec.x0))
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
    print(
        f"wrote {args.out}: {args.method} ran {len(trace) - 1} iterations "
        f"(stop: {trace.stop_reason}), final f_gap {report.f_gaps[-1]:.3e}"
    )
    if report.first_violation is not None:
        print(
            f"warning: {report.failed_check} fails at step {report.first_violation}",
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
        "first_telescope_violation": report.first_failures.get(TELESCOPING),
        "theorem1_ok": report.theorem1_ok,
        "daniel_ok": report.daniel_ok,
    }
    if args.out is not None:
        write_json(args.out, doc)
    if report.first_violation is None:
        print(f"certificate chain holds over {n - 1} steps (C={report.c_value:.12g})")
        return 0
    print(f"{report.failed_check} violated at step {report.first_violation}")
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
    # np.max, unlike max(), reports a nan residual whatever the row order.
    worst = np.max(list(residuals.values()))
    print(
        f"{len(trace) - 1} CG steps: worst identity residual {worst:.3e} "
        f"(tol {battery.tol_id:g}), rho alignment {rho:.3e}"
    )
    print("identities hold" if battery.ok else "identity violation detected")
    return 0 if battery.ok else 1


def _parse_etas(text: str) -> list:
    try:
        etas = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise GradcertError(f"bad --eta list {text!r}") from None
    if not etas:
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


# Built by the first main() of a process and reused: parse_args keeps no
# state between calls, and each call starts from a fresh namespace.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GradcertError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
