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
  theta_0 = nu_0 = 0 and y_1 = x_0. Under the accelerated schedule its
  update is the same floating-point operations, in the same order, as
  y_{k+1} - grad f(y_{k+1}) / L, so "ag_unified" runs the "ag" loop.

Runs record every iterate together with the scalars the algorithm itself
computed (CG step sizes, residual norms, recurred residuals), which is what
the certificate and identity machinery downstream consumes. What follows
from those is not stored: the displacements s_k come from consecutive
iterates, and CG's directions p_k from its residuals and betas. Nor are
gaps: certify() computes every f(x_k) - f* from the iterates.

Every run stops on the same test, the exact gap f(x_k) - f* <= stop_gap,
at the first iterate that passes it, and evaluates that gap (one more
matvec) only where it can already be small: l-strong convexity gives
f(x) - f* >= (l/2) ||x - x*||^2, so each step computes ||x_k - x*||^2 and
calls f_gap only once that bound, widened by its rounding error, is at or
below the stop gap. The gate never moves the stop; it only skips gap
evaluations that could not pass. CG's recurred residual, which drifts from
b - A x_k in floating point, decides no stop but the convergence floor.

An accelerated step allocates one array, the gradient: y_k, x_k - x* and
s_k are workspaces rewritten in place, and x_k is written into the next
row of an iterate array that doubles when full, so memory follows the
steps taken, not max_iters. The arithmetic is the same operations in the
same order as a loop that allocates a new array for each, so the iterates
do not depend on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGroundTruthError
from .objective import QuadraticObjective

# Method -> family: "ag" (accelerated gradient) or "cg".
METHOD_FAMILY = {"ag": "ag", "cg_classic": "cg", "cg_unified": "cg", "ag_unified": "ag"}
METHODS = tuple(METHOD_FAMILY)

# Residual floor, relative to ||r_0||, below which CG reports convergence
# instead of dividing by a vanishing curvature estimate.
CG_CONVERGED_REL = 1e-15


def momentum_coefficient(ell: float, lip: float) -> float:
    return (math.sqrt(lip) - math.sqrt(ell)) / (math.sqrt(lip) + math.sqrt(ell))


@dataclass
class Trace:
    """Column-stacked record of a run.

    xs[k] is x_k; the displacements ss, and on CG runs the betas, the
    directions ps and r0_norm, are derived from the stored columns. CG
    columns (alphas, prev_res_sqs, rs) are None on accelerated runs;
    entries undefined at a row of a present column are nan. No trace
    stores f(x_k) - f*: neither method evaluates it on every iterate, and
    certify() computes it from xs.
    """

    method: str
    xs: np.ndarray
    alphas: np.ndarray | None = None
    prev_res_sqs: np.ndarray | None = None
    rs: np.ndarray | None = None
    stop_reason: str = "max_iters"

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
    def ps(self) -> np.ndarray | None:
        """p_k, replayed as p_1 = r_0, p_{k+1} = beta_{k+1} p_k + r_k; row 0 is nan."""
        if self.rs is None:
            return None
        betas = self.betas
        out = np.full(self.rs.shape, np.nan)
        for k in range(1, len(out)):
            out[k] = self.rs[0] if k == 1 else betas[k] * out[k - 1] + self.rs[k - 1]
        return out

    @property
    def r0_norm(self) -> float | None:
        """||r_0||, the exact initial residual norm of a CG run."""
        return None if self.rs is None else float(np.linalg.norm(self.rs[0]))


def run(obj, method: str, x0, max_iters: int, stop_gap: float, *, record_transients: bool = True) -> Trace:
    """Run a solver and record the full per-iterate trace.

    Stops at the first of: max_iters steps taken; the first iterate whose
    exact f(x_k) - f* is at or below stop_gap (stop_reason "gap" on every
    method, tested behind the gate of the module docstring); the CG
    convergence floor; a non-finite value (stop_reason "diverged", the
    trace keeping the finite prefix and no overflow warning escaping): an
    accelerated run's ||x_k - x*||^2, which overflows when the declared L
    is below the true curvature, or a CG step's p'A p, which a noisy matvec
    or an x0 near the float64 limit can overflow. Breakdown inside a step
    truncates the trace and is recorded in stop_reason rather than raised.
    The objective must carry its minimizer. CG runs keep their recurred
    residuals mutually orthogonal, as described in the module docstring.
    An accelerated step allocates only its gradient, and max_iters sizes no
    array (module docstring); the returned trace owns its arrays.
    record_transients has no effect (traces no longer keep y_k or
    grad f(y_k)); it is accepted only because the benchmark's workloads
    still pass it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if obj.minimizer is None:
        raise MissingGroundTruthError("run needs the objective's minimizer to stop on its gap")
    x0 = obj._check_vector(x0, "x0")
    if METHOD_FAMILY[method] == "ag":
        return _run_ag(obj, method, x0, max_iters, stop_gap)
    if not isinstance(obj, QuadraticObjective):
        raise TypeError(f"{method} applies to quadratic objectives only")
    return _run_cg(obj, method, x0, max_iters, stop_gap)


def _gap_gate(obj, stop_gap: float) -> float:
    """Largest computed (l/2)||x - x*||^2 at which f_gap(x) <= stop_gap can hold.

    On a quadratic whose declared l and L bound the spectrum of A,
    f_gap(x) = 0.5 d'Ad >= (l/2) d'd with d = x - x*. With unit roundoff u
    and gamma = dim u / (1 - dim u), the computed d'd is within gamma of
    its exact value, relative, and the computed d'Ad within
    gamma (2 + gamma) |d|'|A||d| <= err l d'd, err = gamma (2 + gamma)
    sqrt(dim) kappa. So a computed gap at or below stop_gap >= 0 implies a
    computed (l/2) d'd at or below stop_gap (1 + gamma) / (1 - err); the
    returned bound adds 4u for the gate's own roundings. When err < 1 the
    computed gap is >= 0, so a negative stop_gap is never reached, and the
    negative bound never passes.
    Off quadratics the computed gap is not bounded below by (l/2) d'd: the
    reference minimizer is inexact, and the logistic gap's first-order
    terms cancel in floating point, so it can read <= 0 at d != 0. There,
    and where err >= 1, the gate is always open.
    """
    u = 2.0**-53
    gamma = obj.dim * u / (1.0 - obj.dim * u)
    err = gamma * (2.0 + gamma) * math.sqrt(obj.dim) * obj.lip / obj.ell
    if not isinstance(obj, QuadraticObjective) or err >= 1.0:
        return math.inf
    return stop_gap * ((1.0 + gamma) / (1.0 - err) + 4.0 * u)


def _gap_reached(obj, stop_gap: float):
    """reached(x, dd = ||x - x*||^2): f_gap(x) <= stop_gap, its matvec paid past the gate."""
    half_ell = 0.5 * obj.ell
    gate = _gap_gate(obj, stop_gap)

    def reached(x, dd):
        return half_ell * dd <= gate and obj.f_gap(x) <= stop_gap

    return reached


def _run_ag(obj, method, x0, max_iters, stop_gap):
    dim = x0.shape[0]
    # lip == ell gives momentum 0: plain gradient descent with 1/L steps.
    # Both factors are length-dim vectors: numpy multiplies two arrays with
    # less per-call overhead than an array and a float, to the same bits.
    momentum = np.full(dim, momentum_coefficient(obj.ell, obj.lip))
    inv_lip = np.full(dim, 1.0 / obj.lip)
    reached = _gap_reached(obj, stop_gap)
    x_star = obj.minimizer

    # x_k is row k of xs, which doubles when full (module docstring). Each
    # ufunc takes its output as the third positional argument, which numpy
    # parses faster than out=, and is bound to a local name, which Python
    # looks up faster than a module attribute.
    multiply, add, subtract = np.multiply, np.add, np.subtract
    xs = x0[None, :].copy()
    y, d, s = np.empty(dim), np.empty(dim), np.empty(dim)
    subtract(xs[0], x_star, d)
    done = reached(xs[0], d.dot(d))
    stop_reason = "gap" if done else "max_iters"
    n = 1
    # A run whose declared L is below the true curvature overflows; its
    # first non-finite ||x - x*||^2 ends it, and no overflow warning escapes.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(0 if done else max_iters):
            if n == len(xs):
                grown = np.empty((2 * n, dim))
                grown[:n] = xs
                xs = grown
            x, x_next = xs[n - 1], xs[n]
            if n == 1:
                np.copyto(y, x)
            else:
                multiply(momentum, s, y)
                add(x, y, y)
            g = obj.grad(y)
            multiply(g, inv_lip, g)
            subtract(y, g, x_next)
            subtract(x_next, x_star, d)
            dd = d.dot(d)
            if not math.isfinite(dd):
                stop_reason = "diverged"
                break
            subtract(x_next, x, s)
            n += 1
            if reached(x_next, dd):
                stop_reason = "gap"
                break

    return Trace(method=method, xs=xs[:n].copy(), stop_reason=stop_reason)


def _run_cg(obj, method, x0, max_iters, stop_gap, matvec=None):
    a_mat = obj.matrix
    if matvec is None:
        matvec = lambda v: a_mat @ v  # noqa: E731
    unified = method == "cg_unified"
    reached = _gap_reached(obj, stop_gap)
    x_star = obj.minimizer

    x = x0.copy()
    # The initial residual is always exact; an injected matvec (noise
    # studies) replaces only the one product inside each step.
    r = obj.rhs - a_mat @ x0
    r0_norm = float(np.linalg.norm(r))
    threshold = (CG_CONVERGED_REL * r0_norm) ** 2
    res_sq = float(r @ r)

    # Normalized residuals kept for reorthogonalization: never more than
    # dim rows (exact CG has terminated once dim are kept).
    dim = x0.shape[0]
    basis = np.empty((dim, dim))
    kept = 0
    if r0_norm > 0.0:
        basis[0] = r / r0_norm
        kept = 1

    xs = [x]
    rs = [r]
    alphas = [np.nan]
    prev_sqs = [np.nan]
    p = None
    alpha = None
    s = None

    d = x - x_star
    done = reached(x, d.dot(d))
    stop_reason = "gap" if done else "max_iters"
    # A noisy matvec or an x0 near the float64 limit can overflow p'Ap; the
    # first non-finite p'Ap ends the run with no warning. The state is set
    # once for the loop: entering it costs about a dim-100 matvec.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0 if done else max_iters):
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
            if not math.isfinite(pap):
                stop_reason = "diverged"
                break
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
                    basis[kept] = r / r_norm
                    kept += 1
            prev_sqs_last = res_sq
            res_sq = float(r @ r)
            alpha = alpha_next
            x = x_next

            xs.append(x)
            rs.append(r)
            alphas.append(alpha_next)
            prev_sqs.append(prev_sqs_last)
            d = x - x_star
            if reached(x, d.dot(d)):
                stop_reason = "gap"
                break

    return Trace(
        method=method,
        xs=np.vstack(xs),
        rs=np.vstack(rs),
        alphas=np.array(alphas),
        prev_res_sqs=np.array(prev_sqs),
        stop_reason=stop_reason,
    )
