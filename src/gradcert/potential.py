"""Per-step decrease certificates and exactness identities.

The certified quantity is

    psi_k = ||w_k||^2 + (2/l) (f(x_k) - f*),   w_k = x_k + rho_k s_k - x*

with s_k = x_k - x_{k-1} and rho_0 = 0. On the accelerated schedule
rho_k = sqrt(L/l) - 1 for k >= 1 (0 at L = l, where it is gradient
descent); on conjugate gradient rho_k = 2 (f(x_k) - f*) / (alpha_k
||r_{k-1}||^2), from the run's own scalars (0 at exact convergence), is
the weight minimizing ||w_k||, so w_k is orthogonal to the step. _terms()
is the one place that measures the iterates: it evaluates x_k - x*, s, the
gaps, ||grad f(x_k)||, rho and w, vectorized over one block of
GAP_BLOCK_ROWS rows at a time, for certify() and the identity battery
alike.

certify() is the one certifier: a run's warning, a noise detection and the
CLI's audit of a trace all read its verdict, and the CSV's columns are only
claims. The identity battery replays the sharper per-step equalities of CG
on a quadratic; they fail loudly under inexact arithmetic or a perturbed
operator, which makes them a self-test. Its gap_drop row is the gap
identity at TOL_ID, on states up to dim above the roundoff floor;
certify()'s telescoping audits every step of every CG trace, noisy runs
included, so TELESCOPE_TOL and TELESCOPE_FLOOR sit far above roundoff and
stay silent on clean runs.

Both reports keep their checks in one kind of table: checks maps each
check's name to a _Row of its residual per step, its tolerance, its pass
array and the step of its first entry. An entry passes when its residual
is within the tolerance, and a nan fails; only certify()'s chain keeps its
product-form pass bits beside its residual. One set of readers, the
_CheckTable properties, says where each check first fails, which check
fails first and each check's worst residual, for both reports alike.

The reports are in-memory records: the trace CSV belongs to the traces
module, and the CLI assembles every JSON document it writes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingGroundTruthError
from .objective import _UNIT_ROUNDOFF, _roundoff_scale
from .solvers import METHOD_FAMILY

# Rows per block of _terms, the evaluator behind certify(): a block's
# x - x*, s, w and _measure_rows product go once its per-row scalars are
# written, so certify's temporaries stay a fixed size however long the
# trace. The trace CSV is written in blocks of as many rows, for the same
# reason.
GAP_BLOCK_ROWS = 1024

# Multiplicative slack on the closed-form envelope checks; the certificate
# chain takes its tolerance from default_cert_tolerance instead.
ENVELOPE_SLACK = 1e-9

# Cap on the chain's tolerance. Unbounded, a tiny declared ell (1e-300)
# made it about 1e278 and let any trace pass. The cap binds only where
# kappa 2u dim > 1, which no float64 verdict resolves anyway; it stands
# until the tolerance is derived from an error analysis.
CERT_TOL_CAP = 2e-9

# CG gap telescoping: floored (relative to the initial gap) well above the
# run's scalars' own drift, with a tolerance far below the errors it catches.
# The floor also caps the scale of the identity battery's roundoff floor.
TELESCOPE_TOL = 1e-3
TELESCOPE_FLOOR = 1e-6

# The identity battery's tolerances, by kind of row.
TOL_ID = 1e-8  # normalized residual of an equality
ORTH_TOL = 1e-10  # |p_k' r_k| relative to ||p_k|| ||r_0||
RQ_SLACK = 1e-9  # containment of 1/alpha_k in [l, L], relative
WEIGHTED_BOUND_SLACK = 1e-10  # one-sided absolute slack on ||w_k||^2 <= F_k / l
RHO_ALIGNMENT_TOL = 1e-8  # normalized |w_k . s_k|


def default_cert_tolerance(obj) -> float:
    """Chain tolerance scaled for conditioning and dimension; certify() uses no other.

    1e-9 covers the test grid comfortably; the kappa * 2u * dim term, the
    rounding model's objective._roundoff_scale (u the unit roundoff), keeps
    it meaningful at conditioning far beyond it, up to CERT_TOL_CAP.
    """
    return min(1e-9 * (1.0 + _roundoff_scale(obj)), CERT_TOL_CAP)


def contraction_constant(family: str, ell: float, lip: float) -> float:
    """Certified per-step contraction: cg -> 1 + sqrt(l/L), ag -> 1 + 1/(sqrt(L/l) - 1).

    At lip == ell the accelerated schedule has collapsed to gradient
    descent, and its constant is the common one, 1 + sqrt(l/L) = 2.
    """
    if family not in ("ag", "cg"):
        raise ValueError(f"unknown method family {family!r}")
    if family == "ag" and lip > ell:
        return 1.0 + 1.0 / (math.sqrt(lip / ell) - 1.0)
    return 1.0 + math.sqrt(ell / lip)


def _rel(lhs, rhs, floor):
    """|lhs - rhs| / max(|lhs|, |rhs|, floor): an equality's normalized residual."""
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    return np.abs(lhs - rhs) / scale


def chain_steps(psis, c: float, tol: float):
    """(psi_k / psi_{k+1}, step k's check at constant c and slack 1 + tol); see certify().

    A step passes only when both of its psi are finite: inf <= inf would
    otherwise certify a potential that overflowed.
    """
    lhs = psis[1:].copy()
    lhs[1:] *= c
    finite = np.isfinite(psis)
    passes = (lhs <= psis[:-1] * (1.0 + tol)) & finite[:-1] & finite[1:]
    return psis[:-1] / psis[1:], passes


# certify()'s per-step checks, in the order that breaks a tie.
CHAIN = "certificate chain"
TELESCOPING = "gap telescoping"

# One row of a report's checks: the normalized residual of each entry, the
# tolerance, the pass array and the step of entry 0.
_Row = namedtuple("_Row", "residuals tol passes first")


def _row(residuals, tol, first=0) -> _Row:
    """A row whose entry passes when its residual is at most tol; a nan fails."""
    return _Row(residuals, tol, residuals <= tol, first)


class _CheckTable:
    """The readers of a report's checks, one table of _Row by name in tie order.

    first_failures maps each check to its first failing step (None when it
    never fails), failed_check names the check failing first (the earlier
    row wins a tie; None when all pass), first_violation is its step, and
    max_violations maps each check to its worst residual (nan if any is,
    0.0 for a row with no entries).
    """

    @property
    def first_failures(self) -> dict:
        bad = {name: (np.flatnonzero(~row.passes), row.first) for name, row in self.checks.items()}
        return {name: int(k[0]) + first if k.size else None for name, (k, first) in bad.items()}

    @property
    def failed_check(self) -> str | None:
        fails = {name: k for name, k in self.first_failures.items() if k is not None}
        return min(fails, key=fails.get, default=None)

    @property
    def first_violation(self) -> int | None:
        return min((k for k in self.first_failures.values() if k is not None), default=None)

    @property
    def max_violations(self) -> dict:
        rows = self.checks.items()
        return {name: float(r.residuals.max()) if r.residuals.size else 0.0 for name, r in rows}


@dataclass
class CertificateReport(_CheckTable):
    """Vectorized certificate record for a whole trace.

    Arrays are indexed by iterate; ratios[k] = psi_k / psi_{k+1} (inf at
    exact termination). checks is the table of per-step checks, indexed by
    step, one entry fewer than the iterates: CHAIN, the chain at the
    method's constant c_value, and on CG TELESCOPING. The chain's pass bits
    are chain_steps' product form; its residual is the signed
    c_k / ratios_k - 1 (c_0 = 1) against tol_cert, which rounding can set a
    hair apart from the bit, and where the ratio is not finite it reads -1
    on a passing step (psi_{k+1} = 0: the potential is spent) and nan on a
    failing one. The telescoping's residual is _rel's normalized residual
    against TELESCOPE_TOL. A chain pass at c_value implies one at the never
    larger common constant 1 + sqrt(l/L), so no second chain is kept.
    first_failures, failed_check (the chain wins a tie), first_violation
    and max_violations read the table (see _CheckTable). theorem1_ok and
    daniel_ok are the envelope verdicts (daniel_ok is None on AG and when
    L = l); all_ok holds when every check and envelope passes. method is
    the family, "ag" or "cg". grad_norms[k] is ||grad f(x_k)|| (||A x_k -
    b|| on a quadratic) measured from the iterate against the exact
    objective, never CG's recurred residual.
    """

    method: str
    c_value: float
    tol_cert: float
    psis: np.ndarray
    f_gaps: np.ndarray
    grad_norms: np.ndarray
    w_norm_sqs: np.ndarray
    dist_sqs: np.ndarray
    rhos: np.ndarray
    ratios: np.ndarray
    checks: dict
    theorem1_ok: bool
    daniel_ok: bool | None
    flags: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.first_violation is None and self.theorem1_ok and self.daniel_ok is not False

    def __len__(self):
        return self.psis.shape[0]


_Terms = namedtuple("_Terms", "dist_sqs f_gaps grad_norms rhos w_norm_sqs flags d ss w")


def _terms(trace, obj, family, vectors=False) -> _Terms:
    """||x - x*||^2, the gaps clamped at 0, ||grad f||, rho and ||w||^2 per iterate.

    One block of GAP_BLOCK_ROWS rows at a time, it forms the block's
    d = x - x*, s and w, and measures the gaps and gradient norms with
    obj._measure_rows of the block's iterates and d, one product per
    block, whatever the run (accelerated, CG, noisy, or read back from a
    file), never CG's recurred residual, whose drift the battery's
    equalities would register. Only the per-row scalars outlive a block,
    so the memory it needs beyond the trace and those scalars is a fixed
    number of GAP_BLOCK_ROWS x dim blocks. With vectors, d, ss and w of
    every row are kept as well, concatenated from the blocks (None
    otherwise). Callers hold np.errstate(all="ignore"): an overflow fails
    a check.
    """
    if obj.minimizer is None:
        raise MissingGroundTruthError("certify needs the objective's minimizer")
    n = len(trace)
    if n < 1:
        raise ValueError("empty trace")
    dist_sqs, f_gaps, grad_norms, rhos, w_norm_sqs = np.empty((5, n))
    if family == "ag":
        # Exactly 0 at lip == ell, where the schedule is gradient descent.
        rhos[:] = math.sqrt(obj.lip / obj.ell) - 1.0
    kept = []
    for lo in range(0, n, GAP_BLOCK_ROWS):
        rows = slice(lo, lo + GAP_BLOCK_ROWS)
        xs = trace.xs[rows]
        d = xs - obj.minimizer
        gaps, grad_norms[rows] = obj._measure_rows(xs, d)
        f_gaps[rows] = gaps
        if family == "cg":
            # A non-finite scalar only zeroes rho, where the chain cannot
            # see it; certify()'s telescoping fails its step. A negative
            # gap gives rho 0, as its clamped value would.
            raw = 2.0 * gaps / (trace.alphas[rows] * trace.prev_res_sqs[rows])
            rhos[rows] = np.where(np.isfinite(raw) & (gaps > 0.0), raw, 0.0)
        rhos[0] = 0.0
        s = trace.displacements(rows)
        # w = d + rho s, with d added into rho s's array: one block fewer,
        # and floating-point addition commutes, so the bits are the same.
        w = rhos[rows, None] * s
        w += d
        np.einsum("ij,ij->i", d, d, out=dist_sqs[rows])
        np.einsum("ij,ij->i", w, w, out=w_norm_sqs[rows])
        if vectors:
            kept.append((d, s, w))
        # Freed here, not when the next block's arrays replace them.
        del d, s, w
    flags = []
    neg = f_gaps < 0.0
    if np.any(neg):
        # Roundoff at the gap's noise floor; clamping keeps psi >= 0
        # instead of poisoning the chain with sign noise.
        flags.append(f"clamped {int(np.count_nonzero(neg))} negative gap value(s) to 0")
        np.maximum(f_gaps, 0.0, out=f_gaps)
    d, ss, w = (np.concatenate(v) for v in zip(*kept)) if vectors else (None, None, None)
    return _Terms(dist_sqs, f_gaps, grad_norms, rhos, w_norm_sqs, flags, d, ss, w)


def certify(trace, obj) -> CertificateReport:
    """Certificate chain, gap telescoping (CG) and envelope bounds for a finished run.

    Step k checks psi_1 <= psi_0 at k = 0 and C psi_{k+1} <= psi_k after,
    with multiplicative slack 1 + default_cert_tolerance(obj), which the
    report states as tol_cert; a step with a non-finite psi fails. On CG
    the gap telescoping f(x_k) - f(x_{k+1}) = alpha_{k+1} ||r_k||^2 / 2 is
    checked to TELESCOPE_TOL: a step passes when its normalized residual
    (_rel) is at most TELESCOPE_TOL, and _rel reads nan, which fails, where
    either side is nan or infinite. CG's chain has slack, and an iterate the
    recurrence cannot have produced can still contract.
    c0 = (l/2) ||x_0 - x*||^2 + f(x_0) - f* scales the Theorem-1 envelope,
    which decays at the common constant 1 + sqrt(l/L); the Daniel envelope
    (CG only) scales with the initial gap.
    Beyond the trace it needs its per-row outputs and a fixed number of
    GAP_BLOCK_ROWS x dim blocks, however long the trace (see _terms).
    """
    family = METHOD_FAMILY.get(trace.method)
    if family is None:
        raise ValueError(f"trace method {trace.method!r} is not certifiable")
    ell, lip = obj.ell, obj.lip
    tol = default_cert_tolerance(obj)
    c_value = contraction_constant(family, ell, lip)

    with np.errstate(all="ignore"):
        t = _terms(trace, obj, family)
        f_gaps = t.f_gaps
        psis = t.w_norm_sqs + (2.0 / ell) * f_gaps
        # A single iterate leaves these arrays empty: no step, no violation.
        ratios, passes = chain_steps(psis, c_value, tol)
        cs = np.where(np.arange(len(ratios)) > 0, c_value, 1.0)  # c_0 = 1: psi_1 <= psi_0
        residuals = np.where(np.isfinite(ratios), cs / ratios - 1.0, np.where(passes, -1.0, np.nan))
        checks = {CHAIN: _Row(residuals, tol, passes, 0)}
        if family == "cg":
            rhs = 0.5 * trace.alphas[1:] * trace.prev_res_sqs[1:]
            floor = TELESCOPE_FLOOR * max(f_gaps[0], 1e-300)
            checks[TELESCOPING] = _row(_rel(f_gaps[:-1] - f_gaps[1:], rhs, floor), TELESCOPE_TOL)

    ks = np.arange(len(psis))
    root = math.sqrt(ell / lip)
    c0 = 0.5 * ell * t.dist_sqs[0] + f_gaps[0]
    theorem1_bounds = c0 * (1.0 + root) ** (-(ks - 1.0))
    daniel_ok = None
    if family == "cg" and lip > ell:
        daniel_bounds = 4.0 * f_gaps[0] * ((1.0 - root) / (1.0 + root)) ** (2.0 * ks)
        daniel_ok = bool(np.all(f_gaps <= daniel_bounds * (1.0 + ENVELOPE_SLACK)))

    return CertificateReport(
        method=family,
        c_value=c_value,
        tol_cert=tol,
        psis=psis,
        f_gaps=f_gaps,
        grad_norms=t.grad_norms,
        w_norm_sqs=t.w_norm_sqs,
        dist_sqs=t.dist_sqs,
        rhos=t.rhos,
        ratios=ratios,
        checks=checks,
        theorem1_ok=bool(np.all(f_gaps <= theorem1_bounds * (1.0 + ENVELOPE_SLACK))),
        daniel_ok=daniel_ok,
        flags=t.flags,
    )


@dataclass
class IdentityReport(_CheckTable):
    """Result of the CG exactness battery.

    checks is the table of the battery's rows, each a _Row whose first is
    the state of its entry 0 and whose tol is the row's tolerance (TOL_ID
    on the four equalities); first_failures, failed_check, first_violation
    and max_violations read it as they read certify()'s (see _CheckTable),
    and ok holds when no check fails. n is the states examined.
    min_weighted_bound_slack is the signed minimum of 2 f_gap / l -
    ||w||^2, nonnegative for exact CG; the weighted_bound row's residual is
    clipped at 0 and cannot give it back.
    """

    n: int
    checks: dict
    min_weighted_bound_slack: float

    @property
    def ok(self) -> bool:
        return self.failed_check is None


@np.errstate(all="ignore")
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
      rho_alignment   w_k' s_k = 0                                               (k >= 1)

    The terms d, s, the gaps and w come from _terms(), as certify()'s do;
    the battery keeps d, s and w of every row, which rho_alignment reads.
    p' A p is taken as ||r_k||^2 / alpha_{k+1}, the recurrence's own value.
    Differences of squares are evaluated as (a - b).(a + b) so comparisons
    are not dominated by cancellation; equality residuals are normalized by
    max(|lhs|, |rhs|, roundoff floor) with _rel, as certify()'s telescoping
    is, and compared against TOL_ID. The roundoff floor is 2u * dim times
    the row's initial value, with u the unit roundoff of the rounding model
    (objective._UNIT_ROUNDOFF). orth and step_rayleigh use the fixed module
    thresholds, weighted_bound the one-sided absolute slack. rho_alignment,
    the statement that CG's rho_k minimizes ||w_k||, is normalized by
    ||s_k|| ||x_0 - x*|| (a stagnant step, or a run started at x_0 = x*,
    holds vacuously) and compared against RHO_ALIGNMENT_TOL. A residual
    that overflows (a far-out x0, an extreme ell) is nan or inf, and fails
    its row at its step, silently.

    States past k = dim are out of scope: exact CG has terminated by then
    (r_dim = 0) and every identity degenerates to 0/0. For the same reason
    the battery stops at the first state whose exact gap F_k is at or below
    CG's roundoff floor kappa * 2u * dim * F_0 (objective._roundoff_scale,
    which scales default_cert_tolerance too): that state is still checked
    against its predecessor, later ones are not. Like default_cert_tolerance,
    the floor's scale is capped, at TELESCOPE_FLOOR (the floor of
    certify()'s telescoping, relative to the initial gap), so that a tiny
    declared ell cannot put the first state at the floor and leave every
    row but rho_alignment with nothing to check. The report's n is the states
    examined.
    rho_alignment, which involves no difference of gaps, checks every state
    k >= 1 of the trace. The trace must carry its recurred residuals rs,
    which the iterates file does not store; without them the battery
    raises ValueError.
    """
    if METHOD_FAMILY.get(trace.method) != "cg":
        raise ValueError(f"identity battery applies to CG traces, got {trace.method!r}")
    if trace.rs is None:  # as on a trace read back from its iterates file
        raise ValueError("identity battery needs the trace's recurred residuals rs")
    t = _terms(trace, obj, "cg", vectors=True)
    n = min(len(t.f_gaps), obj.dim + 1)
    f2 = 2.0 * t.f_gaps[:n]
    # Stop at the first state at CG's roundoff floor (see the docstring).
    floor_rel = min(_roundoff_scale(obj), TELESCOPE_FLOOR)
    at_floor = np.flatnonzero(f2 <= floor_rel * f2[0])
    if at_floor.size:
        n = int(at_floor[0]) + 1
        f2 = f2[:n]
    ss, d, w = t.ss[:n], t.d[:n], t.w[:n]
    p_clean = np.nan_to_num(trace.ps[:n])
    p_sqs = np.einsum("ij,ij->i", p_clean, p_clean)

    eps = 2.0 * _UNIT_ROUNDOFF * obj.dim
    floor_f = eps * max(f2[0], 1e-300)
    floor_d = eps * max(t.dist_sqs[0], 1e-300)

    a_next = trace.alphas[1:n]
    res_sqs = trace.prev_res_sqs[1:n]
    dist_drop = -np.einsum("ij,ij->i", ss[1:], d[:-1] + d[1:])
    dist_split = np.einsum("ij,ij->i", d[1:] - w[1:], d[1:] + w[1:])
    w_drop = np.einsum("ij,ij->i", w[2:] - w[1:-1], w[2:] + w[1:-1])
    slack = f2 / obj.ell - t.w_norm_sqs[:n]
    pr = np.abs(np.einsum("ij,ij->i", p_clean[1:], trace.rs[1:n]))
    inv_alpha = 1.0 / a_next
    below = np.maximum(0.0, (obj.ell * (1.0 - RQ_SLACK) - inv_alpha) / obj.ell)
    above = np.maximum(0.0, (inv_alpha - obj.lip * (1.0 + RQ_SLACK)) / obj.lip)
    w_dot_s = np.abs(np.einsum("ij,ij->i", t.w[1:], t.ss[1:]))
    s_norms = np.sqrt(np.einsum("ij,ij->i", t.ss[1:], t.ss[1:]))
    dist0 = math.sqrt(float(t.dist_sqs[0]))
    # x_0 = x* leaves no distance to normalize by; like the other rows,
    # which examine no state when F_0 = 0, this one then holds vacuously.
    align = w_dot_s / np.maximum(s_norms * dist0, 1e-300) if dist0 > 0.0 else w_dot_s[:0]
    # A trace too short for a check leaves its row empty: 0.0, no failure.
    checks = {
        "gap_drop": _row(_rel(f2[:-1] - f2[1:], a_next * res_sqs, floor_f), TOL_ID),
        "dist_drop": _row(
            _rel(dist_drop, (f2[:-1] + f2[1:]) * p_sqs[1:] * a_next / res_sqs, floor_d), TOL_ID
        ),
        "dist_split": _row(_rel(dist_split, f2[1:] ** 2 * p_sqs[1:] / res_sqs**2, floor_d), TOL_ID, 1),
        "potential_drop": _row(_rel(w_drop, -(f2[1:-1] ** 2) / res_sqs[1:], floor_d), TOL_ID, 1),
        # A literal 0.0 where the bound holds (np.maximum can return
        # -0.0), and a nan slack fails.
        "weighted_bound": _row(np.where(slack >= 0.0, 0.0, -slack), WEIGHTED_BOUND_SLACK),
        "orth": _row(pr / np.maximum(np.sqrt(p_sqs[1:]) * trace.r0_norm, 1e-300), ORTH_TOL, 1),
        "step_rayleigh": _row(np.maximum(below, above), 0.0, 1),
        "rho_alignment": _row(align, RHO_ALIGNMENT_TOL, 1),
    }
    return IdentityReport(n=n, checks=checks, min_weighted_bound_slack=float(slack.min()))
