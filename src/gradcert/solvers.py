"""First-order iterations for smooth strongly convex minimization.

Three interchangeable iterations:

* accelerated gradient with the constant momentum coefficient
  (sqrt(L) - sqrt(l)) / (sqrt(L) + sqrt(l)) (Nesterov's method for known
  conditioning),
* linear conjugate gradient in the classic Hestenes-Stiefel form (one
  matrix-vector product per step); `run` keeps each new residual
  orthogonal to the earlier ones (classical Gram-Schmidt, twice, until dim
  residuals are kept), which restores the finite termination that plain
  double-precision recurrences lose to orthogonality drift,
* a two-parameter scheme

      y_{k+1} = x_k + theta_k s_k
      x_{k+1} = x_k + nu_k s_k - pi_k grad f(y_{k+1})
      s_{k+1} = x_{k+1} - x_k

  that reproduces either of the above under the matching parameter
  schedule: theta = nu = momentum coefficient and pi = 1/L for accelerated
  gradient; theta = 0, nu_k = alpha_{k+1} beta_{k+1} / alpha_k and
  pi_k = alpha_{k+1} for CG. At k = 0 there is no displacement yet, so
  theta_0 = nu_0 = 0 and y_1 = x_0.

Runs record every iterate together with the scalars the algorithm itself
computed (CG step sizes, residual norms), which is what the certificate and
identity machinery downstream consumes. The displacements s_k are not
stored: they follow from consecutive iterates. CG stops on its recurred
residual's estimate of f(x_k) - f*, which drifts from the true gap in
floating point, so it records no gaps; certify() computes them from the
iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingGroundTruthError
from .objective import QuadraticObjective

METHODS = ("ag", "cg_classic", "cg_unified", "ag_unified")

# Residual floor, relative to ||r_0||, below which CG reports convergence
# instead of dividing by a vanishing curvature estimate.
CG_CONVERGED_REL = 1e-15


def momentum_coefficient(ell: float, lip: float) -> float:
    return (math.sqrt(lip) - math.sqrt(ell)) / (math.sqrt(lip) + math.sqrt(ell))


@dataclass
class Trace:
    """Column-stacked record of a run.

    xs[k] is x_k; the displacements ss, and on CG runs the betas and
    r0_norm, are derived from the stored columns. CG columns
    (alphas, prev_res_sqs, rs, ps) are None on accelerated runs;
    per-row gaps inside a present column are nan. f_gaps holds the exact
    f(x_k) - f*, from the minimizer, that the stop check of an accelerated
    run computed; it is None on CG runs, whose stop check uses the recurred
    residual's drifting estimate, and on traces read back from a file.
    """

    method: str
    xs: np.ndarray
    alphas: np.ndarray | None = None
    prev_res_sqs: np.ndarray | None = None
    rs: np.ndarray | None = None
    ps: np.ndarray | None = None
    f_gaps: np.ndarray | None = None
    stop_reason: str = "max_iters"
    drift_checks: list = field(default_factory=list)

    def __len__(self):
        return self.xs.shape[0]

    @property
    def ss(self) -> np.ndarray:
        """s_k = x_k - x_{k-1}, with a zero row standing in for the undefined s_0."""
        return np.diff(self.xs, axis=0, prepend=self.xs[:1])

    @property
    def betas(self) -> np.ndarray | None:
        """beta_k = ||r_{k-1}||^2 / ||r_{k-2}||^2: nan at row 0, 0 at row 1 (p_1 = r_0)."""
        sqs = self.prev_res_sqs
        if sqs is None:
            return None
        return np.concatenate(([np.nan, 0.0], sqs[2:] / sqs[1:-1]))[: len(sqs)]

    @property
    def r0_norm(self) -> float | None:
        """||r_0||, the exact initial residual norm of a CG run."""
        return None if self.rs is None else float(np.linalg.norm(self.rs[0]))


def conjugacy_drift(trace: Trace, obj) -> float:
    """Worst loss of A-orthogonality between consecutive CG directions.

    Returns max over k of |p_k' A p_{k+1}| normalized by the A-norms of the
    two directions; 0 for traces with fewer than two directions. Exact CG
    keeps this at roundoff level, so growth flags a drifting recurrence.
    """
    if trace.ps is None:
        raise ValueError("trace has no search directions")
    n = len(trace)
    if n < 3:
        return 0.0
    p = np.nan_to_num(trace.ps[1:])
    ap = p @ obj.matrix
    a_norm_sq = np.einsum("ij,ij->i", p, ap)
    cross = np.einsum("ij,ij->i", p[:-1], ap[1:])
    denom = np.sqrt(np.maximum(a_norm_sq[:-1] * a_norm_sq[1:], 1e-300))
    return float(np.max(np.abs(cross) / denom))


def run(obj, method: str, x0, max_iters: int, stop_gap: float, *, record_transients: bool = True) -> Trace:
    """Run a solver and record the full per-iterate trace.

    Stops at the first of: max_iters steps taken; f(x_k) - f* <= stop_gap;
    the CG convergence floor; an accelerated run's gap turning non-finite
    (stop_reason "diverged", the trace keeping the finite prefix), which
    happens when the declared L is below the true curvature. Breakdown
    inside a step truncates the trace and is recorded in stop_reason rather
    than raised. The objective must carry its minimizer. CG runs keep their
    recurred residuals mutually orthogonal, as described in the module
    docstring. record_transients has no effect (traces no longer keep y_k
    or grad f(y_k)); it is accepted only because the benchmark's workloads
    still pass it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if obj.minimizer is None:
        raise MissingGroundTruthError("run needs the objective's minimizer to stop on its gap")
    x0 = obj._check_vector(x0, "x0")
    is_cg = method in ("cg_classic", "cg_unified")
    if is_cg and not isinstance(obj, QuadraticObjective):
        raise TypeError(f"{method} applies to quadratic objectives only")

    # The stop check returns (done, gap). An accelerated run records gap,
    # which is exact, so certification can reuse it instead of
    # re-evaluating the objective on every stored iterate.
    x_star = obj.minimizer
    if isinstance(obj, QuadraticObjective):
        a_mat = obj.matrix

        def stopped(x, r=None):
            d = x - x_star
            # With the recurred residual, A(x - x*) = -r up to drift,
            # so the estimate -d'r/2 costs no extra matvec; CG stops on
            # it but does not record it.
            gap = -0.5 * float(d @ r) if r is not None else 0.5 * float(d @ (a_mat @ d))
            return gap <= stop_gap, gap
    else:

        def stopped(x, r=None):
            gap = obj.f_gap(x)
            return gap <= stop_gap, gap

    if is_cg:
        return _run_cg(obj, method, x0, max_iters, stopped)
    return _run_ag(obj, method, x0, max_iters, stopped)


def _run_ag(obj, method, x0, max_iters, stopped):
    # lip == ell gives momentum 0: plain gradient descent with 1/L steps.
    momentum = momentum_coefficient(obj.ell, obj.lip)
    inv_lip = 1.0 / obj.lip
    unified = method == "ag_unified"

    x = x0.copy()
    s = None
    xs = [x]
    done, gap = stopped(x)
    gaps = [gap]
    stop_reason = "gap" if done else "max_iters"
    # A run whose declared L is below the true curvature overflows; its
    # first non-finite gap ends it, and no overflow warning escapes.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(0 if done else max_iters):
            y = x if s is None else x + momentum * s
            g = obj.grad(y)
            if unified:
                x_next = x - inv_lip * g if s is None else x + momentum * s - inv_lip * g
            else:
                x_next = y - g * inv_lip
            done, gap = stopped(x_next)
            if not math.isfinite(gap):
                stop_reason = "diverged"
                break
            s = x_next - x
            x = x_next
            xs.append(x)
            gaps.append(gap)
            if done:
                stop_reason = "gap"
                break

    return Trace(method=method, xs=np.vstack(xs), f_gaps=np.array(gaps), stop_reason=stop_reason)


def _run_cg(obj, method, x0, max_iters, stopped, matvec=None):
    a_mat = obj.matrix
    if matvec is None:
        matvec = lambda v: a_mat @ v  # noqa: E731
    unified = method == "cg_unified"

    x = x0.copy()
    # The initial residual is always exact; an injected matvec (noise
    # studies) replaces only the one product inside each step.
    r = obj.rhs - a_mat @ x0
    r0_norm = float(np.linalg.norm(r))
    threshold = (CG_CONVERGED_REL * r0_norm) ** 2
    res_sq = float(r @ r)

    # Normalized residuals kept for reorthogonalization, grown on demand and
    # never past dim rows (exact CG has terminated once dim are kept).
    dim = x0.shape[0]
    basis = np.empty((min(dim, 16), dim))
    kept = 0
    if r0_norm > 0.0:
        basis[0] = r / r0_norm
        kept = 1

    xs = [x]
    rs = [r]
    ps = [None]
    alphas = [np.nan]
    prev_sqs = [np.nan]
    drift_checks = []
    stop_reason = "max_iters"
    p = None
    alpha = None
    s = None

    if stopped(x, r)[0]:
        stop_reason = "gap"
    else:
        for k in range(max_iters):
            if res_sq <= threshold:
                stop_reason = "converged"
                break
            if k == 0:
                beta_next = 0.0
                p = r.copy()
            else:
                beta_next = res_sq / prev_sqs_last
                p = beta_next * p + r
            ap = matvec(p)
            pap = float(p @ ap)
            if pap <= 0.0:
                stop_reason = "not_positive_definite"
                break
            alpha_next = res_sq / pap
            if unified:
                nu = 0.0 if k == 0 else alpha_next * beta_next / alpha
                if s is None:
                    x_next = x + alpha_next * r
                else:
                    x_next = x + nu * s + alpha_next * r
            else:
                x_next = x + alpha_next * p
            s = x_next - x
            r = r - alpha_next * ap
            if 0 < kept < dim:
                # Classical Gram-Schmidt, applied twice, restores the mutual
                # orthogonality that exact CG residuals have and floating
                # point loses; without it termination slips past dim steps.
                q = basis[:kept]
                r = r - (q @ r) @ q
                r = r - (q @ r) @ q
                r_norm = float(np.linalg.norm(r))
                if r_norm > 0.0:
                    if kept == basis.shape[0]:
                        basis = np.vstack([basis, np.empty((min(kept, dim - kept), dim))])
                    basis[kept] = r / r_norm
                    kept += 1
            prev_sqs_last = res_sq
            res_sq = float(r @ r)
            alpha = alpha_next
            x = x_next

            xs.append(x)
            rs.append(r)
            ps.append(p)
            alphas.append(alpha_next)
            prev_sqs.append(prev_sqs_last)
            if (k + 1) % 10 == 0:
                true_r = obj.rhs - obj.matrix @ x
                drift_checks.append((k + 1, float(np.linalg.norm(r - true_r))))
            if stopped(x, r)[0]:
                stop_reason = "gap"
                break

    n = len(xs)
    p_col = np.full((n, dim), np.nan)
    for k in range(1, n):
        p_col[k] = ps[k]
    return Trace(
        method=method,
        xs=np.vstack(xs),
        rs=np.vstack(rs),
        ps=p_col,
        alphas=np.array(alphas),
        prev_res_sqs=np.array(prev_sqs),
        stop_reason=stop_reason,
        drift_checks=drift_checks,
    )
