"""Per-step decrease certificates and exactness identities.

The certified quantity is

    psi_k = ||w_k||^2 + (2/l) (f(x_k) - f*),   w_k = x_k + rho_k s_k - x*

with s_k = x_k - x_{k-1} and rho_0 = 0. For the accelerated schedule
rho_k = sqrt(L/l) - 1 for all k >= 1 (0 when L = l, where the schedule is
gradient descent); for conjugate gradient rho_k is assembled from the run's
own scalars, rho_k = 2 (f(x_k) - f*) / (alpha_k ||r_{k-1}||^2) (0 at exact
convergence), and is exactly the weight minimizing ||w_k|| over rho (so w_k
is orthogonal to the step, which rho_optimality_check verifies). certify()
is the one place that evaluates rho, w and psi, vectorized over a trace;
its report carries them per iterate.

certify() checks the chain

    psi_1 <= psi_0,    C psi_{k+1} <= psi_k   for k >= 1

at the method's contraction constant C (no contraction is claimed for the
very first step), plus two closed-form envelopes on f(x_k) - f*. It is
the one certifier: the CLI's audit of a trace runs it on the iterates the
run stored, and reads the CSV's columns only as claims to compare. The
identity battery replays the sharper per-step equalities that hold for CG
on a quadratic; those fail loudly under inexact arithmetic or a perturbed
operator, which is what makes them usable as a self-test; it is one table
of checks, each a normalized residual per step against its tolerance.

The reports are plain in-memory records with no file format of their own:
the trace CSV belongs to the traces module and every JSON document the CLI
writes is assembled by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingGroundTruthError

# Multiplicative slack on the closed-form envelope checks; the certificate
# chain takes its tolerance from default_cert_tolerance instead.
ENVELOPE_SLACK = 1e-9

# Normalized residual above which an equality of the identity battery fails.
TOL_ID = 1e-8

# p'r orthogonality threshold, relative to ||p_k|| ||r_0||.
ORTH_TOL = 1e-10

# Rayleigh-quotient containment slack for 1/alpha_k.
RQ_SLACK = 1e-9

# One-sided absolute slack on the weighted-norm inequality (e).
WEIGHTED_BOUND_SLACK = 1e-10

# Largest normalized |w_k . s_k| that rho_optimality_check accepts.
RHO_ALIGNMENT_TOL = 1e-8

_METHOD_FAMILY = {"ag": "ag", "ag_unified": "ag", "cg_classic": "cg", "cg_unified": "cg"}


def default_cert_tolerance(obj) -> float:
    """Chain tolerance scaled for conditioning and dimension; certify() uses no other.

    1e-9 covers the test grid comfortably; the kappa * eps * dim term keeps
    it meaningful at conditioning far beyond it.
    """
    kappa = obj.lip / obj.ell
    return 1e-9 * (1.0 + kappa * 2.0**-52 * obj.dim)


def contraction_constant(method: str, ell: float, lip: float) -> float:
    """Certified per-step contraction: cg -> 1 + sqrt(l/L), ag -> 1 + 1/(sqrt(L/l) - 1).

    At lip == ell the accelerated schedule has collapsed to gradient
    descent, and its constant is the common one, 1 + sqrt(l/L) = 2.
    """
    family = _METHOD_FAMILY.get(method, method)
    if family not in ("ag", "cg"):
        raise ValueError(f"unknown method {method!r}")
    if family == "ag" and lip > ell:
        return 1.0 + 1.0 / (math.sqrt(lip / ell) - 1.0)
    return 1.0 + math.sqrt(ell / lip)


@dataclass
class CertificateReport:
    """Vectorized certificate record for a whole trace.

    Arrays are indexed by iterate. step_passes[k] is the forward check at
    step k (psi_1 <= psi_0 at k = 0, C psi_{k+1} <= psi_k after), one entry
    fewer than the iterates; ratios[k] = psi_k / psi_{k+1} (inf at exact
    termination). first_violation is the smallest failing step index or
    None. Accelerated runs are re-checked at the weaker common constant
    1 + sqrt(l/L); common_first_violation reports that chain (equal to the
    main one on CG runs). method is the family, "ag" or "cg".
    """

    method: str
    c_value: float
    c_common: float
    tol_cert: float
    ell: float
    lip: float
    psis: np.ndarray
    f_gaps: np.ndarray
    w_norm_sqs: np.ndarray
    dist_sqs: np.ndarray
    rhos: np.ndarray
    ratios: np.ndarray
    step_passes: np.ndarray
    first_violation: int | None
    common_first_violation: int | None
    theorem1_bounds: np.ndarray
    theorem1_ok: bool
    daniel_bounds: np.ndarray | None
    daniel_ok: bool | None
    degenerate: bool = False
    flags: list = field(default_factory=list)

    @property
    def chain_ok(self) -> bool:
        return self.first_violation is None

    @property
    def all_ok(self) -> bool:
        out = self.chain_ok and self.theorem1_ok
        if self.daniel_ok is not None:
            out = out and self.daniel_ok
        return out

    def __len__(self):
        return self.psis.shape[0]


def certify(trace, obj) -> CertificateReport:
    """Certificate chain plus envelope bounds for a finished run.

    The gaps f(x_k) - f* come from the objective's minimizer: the trace's
    f_gaps when it carries them (exact gaps an accelerated run computed to
    stop) and obj.f_gap_many on the iterates otherwise, so CG runs, noisy
    runs and audited traces are all measured against the true objective.
    Step k compares C psi_{k+1} against psi_k with multiplicative slack
    1 + default_cert_tolerance(obj), which the report states as tol_cert
    (step 0 claims descent only); the chain is also replayed at the common
    constant 1 + sqrt(l/L). c0 = (l/2) ||x_0 - x*||^2 + f(x_0) - f* scales
    the Theorem-1 envelope; the Daniel envelope (CG only) scales with the
    initial gap.
    """
    if obj.minimizer is None:
        raise MissingGroundTruthError("certify needs the objective's minimizer")
    family = _METHOD_FAMILY.get(trace.method)
    if family is None:
        raise ValueError(f"trace method {trace.method!r} is not certifiable")

    xs = trace.xs
    n = xs.shape[0]
    if n < 1:
        raise ValueError("empty trace")
    ell, lip = obj.ell, obj.lip
    tol = default_cert_tolerance(obj)
    c_common = 1.0 + math.sqrt(ell / lip)
    c_value = contraction_constant(family, ell, lip)
    slack = 1.0 + tol

    flags = []
    # Iterates from a diverged run or an untrusted file can overflow here;
    # the resulting inf or nan psi fails its step instead of warning.
    with np.errstate(all="ignore"):
        d = xs - obj.minimizer[None, :]
        dist_sqs = np.einsum("ij,ij->i", d, d)

        f_gaps = obj.f_gap_many(xs) if trace.f_gaps is None else trace.f_gaps
        neg = f_gaps < 0.0
        if np.any(neg):
            # Roundoff at the gap's noise floor; clamping keeps psi >= 0
            # instead of poisoning the chain with sign noise.
            flags.append(f"clamped {int(np.count_nonzero(neg))} negative gap value(s) to 0")
            f_gaps = np.maximum(f_gaps, 0.0)

        if family == "ag":
            # Exactly 0 at lip == ell, where the schedule is gradient descent.
            rhos = np.full(n, math.sqrt(lip / ell) - 1.0)
        else:
            raw = 2.0 * f_gaps / (trace.alphas * trace.prev_res_sqs)
            rhos = np.where(np.isfinite(raw) & (f_gaps > 0.0), raw, 0.0)
        rhos[0] = 0.0

        w = d + rhos[:, None] * trace.ss
        w_norm_sqs = np.einsum("ij,ij->i", w, w)
        psis = w_norm_sqs + (2.0 / ell) * f_gaps

        # A single iterate leaves these arrays empty: no step, no violation.
        lhs = psis[1:].copy()
        lhs[1:] *= c_value
        step_passes = lhs <= psis[:-1] * slack
        common_lhs = psis[1:].copy()
        common_lhs[1:] *= c_common
        common_passes = common_lhs <= psis[:-1] * slack
        ratios = psis[:-1] / psis[1:]

    def first_fail(passes):
        bad = np.flatnonzero(~passes)
        return int(bad[0]) if bad.size else None

    ks = np.arange(n)
    c0 = 0.5 * ell * dist_sqs[0] + f_gaps[0]
    theorem1_bounds = c0 * c_common ** (-(ks - 1.0))
    daniel_bounds = None
    daniel_ok = None
    degenerate = lip <= ell
    if family == "cg" and not degenerate:
        root = math.sqrt(ell / lip)
        q = (1.0 - root) / (1.0 + root)
        daniel_bounds = 4.0 * f_gaps[0] * q ** (2.0 * ks)
        daniel_ok = bool(np.all(f_gaps <= daniel_bounds * (1.0 + ENVELOPE_SLACK)))

    return CertificateReport(
        method=family,
        c_value=c_value,
        c_common=c_common,
        tol_cert=tol,
        ell=ell,
        lip=lip,
        psis=psis,
        f_gaps=np.asarray(f_gaps, dtype=float),
        w_norm_sqs=w_norm_sqs,
        dist_sqs=dist_sqs,
        rhos=rhos,
        ratios=ratios,
        step_passes=step_passes,
        first_violation=first_fail(step_passes),
        common_first_violation=first_fail(common_passes),
        theorem1_bounds=theorem1_bounds,
        theorem1_ok=bool(np.all(f_gaps <= theorem1_bounds * (1.0 + ENVELOPE_SLACK))),
        daniel_bounds=daniel_bounds,
        daniel_ok=daniel_ok,
        degenerate=degenerate,
        flags=flags,
    )


@dataclass
class IdentityReport:
    """Result of the CG exactness battery.

    max_violations maps check name to its worst normalized residual;
    first_failures to the first step index exceeding that check's
    tolerance (None when it never fails); ok holds when no check exceeds
    its tolerance. min_weighted_bound_slack is the signed minimum of
    2 f_gap / l - ||w||^2, nonnegative for exact CG.
    """

    tol_id: float
    n: int
    max_violations: dict
    first_failures: dict
    min_weighted_bound_slack: float
    ok: bool


def hs_identity_battery(trace, obj) -> IdentityReport:
    """Exact-arithmetic CG identities, checked in floating point.

    Per step (F_k = 2 (f(x_k) - f*); scalars from the trace itself):

      gap_drop        F_k - F_{k+1} = alpha_{k+1} ||r_k||^2
      dist_drop       ||x_k - x*||^2 - ||x_{k+1} - x*||^2
                        = (F_k + F_{k+1}) ||p_{k+1}||^2 / (p_{k+1}' A p_{k+1})
      dist_split      ||x_k - x*||^2 - ||w_k||^2 = F_k^2 ||p_k||^2 / ||r_{k-1}||^4   (k >= 1)
      potential_drop  ||w_{k+1}||^2 - ||w_k||^2 = -F_k^2 / ||r_k||^2                 (k >= 1)
      weighted_bound  ||w_k||^2 <= F_k / l
      orth            p_k' r_k = 0
      step_rayleigh   l <= 1/alpha_k <= L

    p' A p is taken as ||r_k||^2 / alpha_{k+1}, the recurrence's own value.
    Differences of squares are evaluated as (u - v).(u + v) so comparisons
    are not dominated by cancellation; equality residuals are normalized by
    max(|lhs|, |rhs|, roundoff floor) and compared against TOL_ID. orth and
    step_rayleigh use the fixed module thresholds, weighted_bound the
    one-sided absolute slack.

    States past k = dim are out of scope: exact CG has terminated by then
    (r_dim = 0), every identity above degenerates to 0/0, and the
    floating-point continuation that does reach those states carries no
    digits for an equality check. For the same reason the battery stops at
    the first state whose exact gap F_k is at or below CG's roundoff floor
    kappa * eps * dim * F_0 (the scale of default_cert_tolerance): that
    state is still checked against its predecessor, later ones are not. The
    report's n is the states examined.
    """
    if _METHOD_FAMILY.get(trace.method) != "cg":
        raise ValueError(f"identity battery applies to CG traces, got {trace.method!r}")

    # A CG trace carries no gaps, so these are exact: the equalities are
    # tight enough that the recurred residual's drift would register as
    # spurious violations.
    report = certify(trace, obj)
    n = min(len(report), obj.dim + 1)
    f2 = 2.0 * report.f_gaps[:n]
    # Stop at the first state at CG's roundoff floor (see the docstring).
    at_floor = np.flatnonzero(f2 <= (obj.lip / obj.ell) * 2.0**-52 * obj.dim * f2[0])
    if at_floor.size:
        n = int(at_floor[0]) + 1
        f2 = f2[:n]
    ss = trace.ss[:n]
    d = trace.xs[:n] - obj.minimizer[None, :]
    w = d + report.rhos[:n, None] * ss
    p_clean = np.nan_to_num(trace.ps[:n])
    p_sqs = np.einsum("ij,ij->i", p_clean, p_clean)

    eps = 2.0**-52 * obj.dim
    floor_f = eps * max(f2[0], 1e-300)
    floor_d = eps * max(report.dist_sqs[0], 1e-300)

    def rel(lhs, rhs, floor):
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
        return np.abs(lhs - rhs) / scale

    a_next = trace.alphas[1:n]
    res_sqs = trace.prev_res_sqs[1:n]
    dist_drop = -np.einsum("ij,ij->i", ss[1:], d[:-1] + d[1:])
    dist_split = np.einsum("ij,ij->i", d[1:] - w[1:], d[1:] + w[1:])
    w_drop = np.einsum("ij,ij->i", w[2:] - w[1:-1], w[2:] + w[1:-1])
    slack = f2 / obj.ell - np.einsum("ij,ij->i", w, w)
    pr = np.abs(np.einsum("ij,ij->i", p_clean[1:], trace.rs[1:n]))
    inv_alpha = 1.0 / a_next
    below = np.maximum(0.0, (obj.ell * (1.0 - RQ_SLACK) - inv_alpha) / obj.ell)
    above = np.maximum(0.0, (inv_alpha - obj.lip * (1.0 + RQ_SLACK)) / obj.lip)
    # name -> (normalized residual per entry, tolerance, state of entry 0).
    # A trace too short for a check leaves its slice empty: 0.0, no failure.
    checks = {
        "gap_drop": (rel(f2[:-1] - f2[1:], a_next * res_sqs, floor_f), TOL_ID, 0),
        "dist_drop": (
            rel(dist_drop, (f2[:-1] + f2[1:]) * p_sqs[1:] * a_next / res_sqs, floor_d), TOL_ID, 0
        ),
        "dist_split": (rel(dist_split, f2[1:] ** 2 * p_sqs[1:] / res_sqs**2, floor_d), TOL_ID, 1),
        "potential_drop": (rel(w_drop, -(f2[1:-1] ** 2) / res_sqs[1:], floor_d), TOL_ID, 1),
        # A literal 0.0 where the bound holds; np.maximum can return -0.0.
        "weighted_bound": (np.where(slack < 0.0, -slack, 0.0), WEIGHTED_BOUND_SLACK, 0),
        "orth": (pr / np.maximum(np.sqrt(p_sqs[1:]) * trace.r0_norm, 1e-300), ORTH_TOL, 1),
        "step_rayleigh": (np.maximum(below, above), 0.0, 1),
    }

    max_violations = {}
    first_failures = {}
    ok = True
    for name, (v, tol, offset) in checks.items():
        max_violations[name] = float(v.max()) if v.size else 0.0
        bad = np.flatnonzero(v > tol)
        first_failures[name] = int(bad[0]) + offset if bad.size else None
        ok = ok and max_violations[name] <= tol
    return IdentityReport(
        tol_id=TOL_ID,
        n=n,
        max_violations=max_violations,
        first_failures=first_failures,
        min_weighted_bound_slack=float(slack.min()),
        ok=ok,
    )


def rho_optimality_check(trace, obj):
    """Max normalized |w_k . s_k| over k >= 1; the CG weight should zero it.

    Returns (max_violation, ok), ok meaning at most RHO_ALIGNMENT_TOL.
    Normalization is ||s_k|| ||x_0 - x*||, so a stagnant step (s_k = 0)
    holds vacuously.
    """
    report = certify(trace, obj)
    if len(report) < 2:
        return 0.0, True
    ss = trace.ss
    d = trace.xs - obj.minimizer[None, :]
    w = d + report.rhos[:, None] * ss
    dots = np.abs(np.einsum("ij,ij->i", w[1:], ss[1:]))
    s_norms = np.sqrt(np.einsum("ij,ij->i", ss[1:], ss[1:]))
    dist0 = math.sqrt(float(report.dist_sqs[0]))
    v = dots / np.maximum(s_norms * dist0, 1e-300)
    worst = float(v.max())
    return worst, worst <= RHO_ALIGNMENT_TOL
