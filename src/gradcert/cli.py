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
from .generate import LAYOUTS, GroundTruth, SpectrumSpec
from .perturb import sweep
from .potential import certify, hs_identity_battery, rho_optimality_check
from .problems import load_problem, make_quadratic_problem
from .serialize import write_json
from .solvers import run
from .traces import read_trace_csv, read_trace_iterates, write_trace_csv

METHOD_NAMES = {
    "ag": "ag",
    "cg": "cg_classic",
    "ag-unified": "ag_unified",
    "cg-unified": "cg_unified",
}

# Cross-row gap telescoping on a CG trace: f_gap_k - f_gap_{k+1} must
# equal alpha_{k+1} ||r_k||^2 / 2. The scalars are the recurrence's own,
# so the comparison is floored well above their allowed drift and the
# tolerance stays far below the gross errors it exists to catch. It stays
# beside certify() because CG's chain has slack: an iterate the recurrence
# cannot have produced can still contract.
TELESCOPE_TOL = 1e-3
TELESCOPE_FLOOR = 1e-6


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
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
    p_gen.add_argument("--dim", type=_positive_int, required=True)
    p_gen.add_argument("--ell", type=_positive_float, required=True, help="smallest eigenvalue")
    p_gen.add_argument("--lip", type=_positive_float, required=True, help="largest eigenvalue")
    p_gen.add_argument("--layout", choices=LAYOUTS, default="log_uniform")
    p_gen.add_argument("--seed", type=_nonneg_int, default=0)
    p_gen.add_argument("--out", default="problem.json")

    p_run = sub.add_parser("run", help="run a solver and write a certified trace")
    p_run.add_argument("--problem", required=True)
    p_run.add_argument("--method", choices=sorted(METHOD_NAMES), required=True)
    p_run.add_argument("--iters", type=_positive_int, default=1000)
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
    p_pb.add_argument("--iters", type=_positive_int, default=600)
    p_pb.add_argument("--seed", type=_nonneg_int, default=0)
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
    if method.startswith("cg") and spec.kind != "quadratic":
        raise GradcertError(f"--method {args.method} applies to quadratic problems only")
    if method in ("ag", "ag_unified") and obj.lip == obj.ell:
        print(
            "warning: L == ell, momentum degenerates; running plain gradient "
            "descent and certifying at the common constant",
            file=sys.stderr,
        )
    # Past ~1e-12 of the initial gap the iterates stagnate in double
    # precision and contraction checks report that, not a method bug.
    trace = run(obj, method, spec.x0, args.iters, 1e-12 * obj.f_gap(spec.x0))
    if trace.stop_reason == "diverged":
        raise GradcertError(
            f"{args.method} diverged after {len(trace) - 1} iterations (f_gap no longer "
            f"finite); is L = {obj.lip:g} below the largest curvature of {args.problem}?"
        )
    report = certify(trace, obj)
    write_trace_csv(args.out, trace, obj, report)
    n = len(trace)
    print(
        f"wrote {args.out}: {args.method} ran {n - 1} iterations "
        f"(stop: {trace.stop_reason}), final f_gap {report.f_gaps[-1]:.3e}"
    )
    if report.first_violation is not None:
        print(
            f"warning: certificate chain fails at step {report.first_violation}",
            file=sys.stderr,
        )
    return 0


def cmd_certify(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    columns = read_trace_csv(args.trace, names=("psi", "f_gap"))
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

    # The certifier recomputes everything from the iterates; the CSV's
    # cells are the run's claims and must agree with it.
    report = certify(trace, obj)
    bound = report.tol_cert * report.psis[0]
    for name, scale, values in (
        ("psi", 1.0, report.psis),
        ("f_gap", 2.0 / obj.ell, report.f_gaps),
    ):
        cells = columns[name]
        claims = np.array([c if type(c) is float else np.nan for c in cells])
        bad = np.flatnonzero(~(scale * np.abs(claims - values) <= bound))
        if bad.size:
            k = int(bad[0])
            raise GradcertError(
                f"row {k} of {args.trace}: {name} claim {cells[k]} disagrees with "
                f"{values[k]:.17g} recomputed from the iterates"
            )

    # CG iterates must also be the ones the recurrence produced; a row it
    # cannot have produced breaks the per-step gap identity against both
    # neighbors even where the psi chain has slack.
    first_violation = report.first_violation
    first_telescope = None
    if report.method == "cg":
        f_gaps = report.f_gaps
        lhs = f_gaps[:-1] - f_gaps[1:]
        rhs = 0.5 * trace.alphas[1:] * trace.prev_res_sqs[1:]
        scale = np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), TELESCOPE_FLOOR * max(f_gaps[0], 1e-300)
        )
        # Negated so that a nan scalar, which nothing can check, fails.
        bad = np.flatnonzero(~(np.abs(lhs - rhs) <= TELESCOPE_TOL * scale))
        if bad.size:
            first_telescope = int(bad[0])
    if first_telescope is not None and (
        first_violation is None or first_telescope < first_violation
    ):
        first_violation = first_telescope

    doc = {
        "trace": args.trace,
        "problem": args.problem,
        "method": report.method,
        "iterates": n,
        "C": report.c_value,
        "tol_cert": report.tol_cert,
        "first_violation": first_violation,
        "first_telescope_violation": first_telescope,
        "theorem1_ok": report.theorem1_ok,
        "daniel_ok": report.daniel_ok,
    }
    if args.out is not None:
        write_json(args.out, doc)
    if first_violation is None:
        print(f"certificate chain holds over {n - 1} steps (C={report.c_value:.12g})")
        return 0
    print(f"certificate chain violated at step {first_violation}")
    return 1


def cmd_identities(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    if spec.kind != "quadratic":
        raise GradcertError("identity checks apply to quadratic problems only")
    trace = run(obj, "cg_classic", spec.x0, obj.dim, -math.inf)
    battery = hs_identity_battery(trace, obj)
    rho_misalignment, rho_ok = rho_optimality_check(trace, obj)
    ok = battery.ok and rho_ok
    doc = {
        "iterates": battery.n,
        "tol_id": battery.tol_id,
        "ok": ok,
        "max_violations": battery.max_violations,
        "first_failures": battery.first_failures,
        "min_weighted_bound_slack": battery.min_weighted_bound_slack,
        "rho_alignment": rho_misalignment,
        "rho_ok": rho_ok,
    }
    if args.out is not None:
        write_json(args.out, doc)
    worst = max(battery.max_violations.values())
    print(
        f"{len(trace) - 1} CG steps: worst identity residual {worst:.3e} "
        f"(tol {battery.tol_id:g}), rho alignment {rho_misalignment:.3e}"
    )
    print("identities hold" if ok else "identity violation detected")
    return 0 if ok else 1


def _parse_etas(text: str) -> list:
    try:
        etas = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise GradcertError(f"bad --eta list {text!r}") from None
    if not etas or any(e < 0 for e in etas):
        raise GradcertError("--eta needs a comma-separated list of magnitudes >= 0")
    return etas


def cmd_perturb(args) -> int:
    spec, obj = _load_certifiable(args.problem)
    if spec.kind != "quadratic":
        raise GradcertError("noise injection applies to quadratic problems only")
    etas = _parse_etas(args.eta)
    reports = sweep(
        obj,
        GroundTruth(obj.minimizer, obj.min_value),
        etas,
        [args.seed],
        args.iters,
        x0=spec.x0,
    )
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
