"""First-order iterations for smooth strongly convex minimization.

Three interchangeable iterations:

* accelerated gradient with the constant momentum coefficient
  (sqrt(L) - sqrt(l)) / (sqrt(L) + sqrt(l)) (Nesterov's method for known
  conditioning),
* linear conjugate gradient in the classic Hestenes-Stiefel form (one
  matrix-vector product per step); `run` keeps each new residual
  orthogonal to the earlier ones until dim residuals are kept, which
  restores the finite termination that plain double-precision recurrences
  lose to orthogonality drift. Each step runs one classical Gram-Schmidt
  pass, and a second only when the first left less than half the squared
  norm (||r_1||^2 < ||r_0||^2 / 2): a pass that cancels less is orthogonal
  to working precision, and after one that cancels more a second pass is
  enough (Kahan's "twice is enough" rule, analysed by Daniel, Gragg,
  Kaufman and Stewart, Math. Comp. 30, 1976, and by Giraud, Langou and
  Rozloznik, Comput. Math. Appl. 50, 2005). Clean runs almost never take
  the second pass; runs under a noisy matvec often do,
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

Neither loop forms a product itself: accelerated steps call obj.grad, and
CG steps call QuadraticObjective.matvec, the one product grad takes too.
So a copy of the objective that replaces matvec (perturb's noisy copies)
reaches both families, and the loops know nothing of noise.

Every run stops on the same test, the exact gap f(x_k) - f* <= stop_gap,
at the first iterate that passes it, and evaluates that gap (one more
matvec) only where it can already be small: l-strong convexity gives
f(x) - f* >= (l/2) ||x - x*||^2, so each step computes ||x_k - x*||^2 and
calls f_gap only once that bound, widened by its rounding error, is at or
below the stop gap. The gate never moves the stop; it only skips gap
evaluations that could not pass. CG's recurred residual, which drifts from
b - A x_k in floating point, decides no stop but the convergence floor.

The stop and the audit compute the same gap with different shapes: the
stop test calls f_gap on one row, and certify() measures the whole trace,
GAP_BLOCK_ROWS rows at a time. BLAS rounds the two shapes
differently, so one iterate's two gaps can differ in their last bits. A
stop_gap within that rounding of some iterate's gap can therefore end the
run one step away from the first iterate that certify() puts at or below
stop_gap (a stop_gap equal to an audited gap often stops a step later). A
stop_gap farther than that from every audited gap stops exactly at that
first iterate.

An accelerated step allocates one array, the gradient: y_k, x_k - x* and
s_k are workspaces rewritten in place, and x_k is written into the next
row of an iterate array that doubles when full, so memory follows the
steps taken, not max_iters. The step keeps the row view it wrote as the
next step's x_k (fetched again only after the array grows), tests the
gate inline, and makes exactly one obj.grad call, the bound method read
once per run. The arithmetic is the same operations in the same order as
a loop that allocates a new array for each, so the iterates do not depend
on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingGroundTruthError
from .objective import _UNIT_ROUNDOFF, QuadraticObjective, _count, _finite, _real

# Method -> family: "ag" (accelerated gradient) or "cg".
METHOD_FAMILY = {"ag": "ag", "cg_classic": "cg", "cg_unified": "cg", "ag_unified": "ag"}
METHODS = tuple(METHOD_FAMILY)

# Residual floor, relative to ||r_0||, below which CG reports convergence
# instead of dividing by a vanishing curvature estimate.
CG_CONVERGED_REL = 1e-15

# Stop gap, relative to the initial gap, of the CLI's runs and of the noise
# monitor. Past ~1e-12 of the initial gap the iterates stagnate in double
# precision and contraction checks report that, not a method bug.
STOP_GAP_REL = 1e-12


def momentum_coefficient(ell: float, lip: float) -> float:
    return (math.sqrt(lip) - math.sqrt(ell)) / (math.sqrt(lip) + math.sqrt(ell))


@dataclass
class Trace:
    """Column-stacked record of a run.

    xs[k] is x_k; the displacements s_k (displacements()), and on CG runs
    the betas, the directions ps and r0_norm, are derived from the stored
    columns. CG columns (alphas, prev_res_sqs, rs) are None on accelerated
    runs; entries undefined at a row of a present column are nan. No trace
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

    def displacements(self, rows: slice) -> np.ndarray:
        """s_k = x_k - x_{k-1} on the rows selected (a slice of step 1), as one new array.

        Row 0 of the trace, where s_0 is undefined, reads as zeros.
        """
        lo, hi, _ = rows.indices(len(self))
        xs = self.xs[lo:hi]
        out = np.empty_like(xs)
        if lo == 0:
            out[:1] = 0.0
        else:
            np.subtract(xs[0], self.xs[lo - 1], out=out[0])
        np.subtract(xs[1:], xs[:-1], out=out[1:])
        return out

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
    method, tested behind the gate of the module docstring on obj.f_gap of
    that iterate alone, so a stop_gap within rounding of a gap certify()
    reports can stop a step away from where certify() would); the CG
    convergence floor; a non-finite value (stop_reason "diverged", the
    trace keeping the finite prefix and no overflow warning escaping): an
    accelerated run's ||x_k - x*||^2, which overflows when the declared L
    is below the true curvature, or a CG step's p'A p, which a noisy matvec
    or an x0 near the float64 limit can overflow. Breakdown inside a step
    truncates the trace and is recorded in stop_reason rather than raised.
    The objective must carry its minimizer. stop_gap is a real number
    within float64's range, or +-inf (-inf never stops on the gap, inf
    stops at x0); a bool, a string, None or nan raises ValueError, as does
    an int past float64's range. CG runs keep their recurred
    residuals mutually orthogonal, as described in the module docstring.
    An accelerated step allocates only its gradient, and max_iters sizes no
    array (module docstring); the returned trace owns its arrays.
    record_transients has no effect (traces no longer keep y_k or
    grad f(y_k)); it is accepted only because the benchmark's workloads
    still pass it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    x0 = _check_run_args(obj, x0, max_iters)
    if not _real(stop_gap):
        raise ValueError(f"stop_gap must be a real number in float64's range or +-inf, got {stop_gap!r}")
    if METHOD_FAMILY[method] == "ag":
        return _run_ag(obj, method, x0, max_iters, stop_gap)
    if not isinstance(obj, QuadraticObjective):
        raise TypeError(f"{method} applies to quadratic objectives only")
    return _run_cg(obj, method, x0, max_iters, stop_gap)


def _check_run_args(obj, x0, max_iters):
    """x0 as a finite vector of obj's dim, obj carrying its minimizer; max_iters an integer >= 1.

    The checks of run and of perturb's monitored run: a nan or infinite x0
    raises ValueError rather than running to a "diverged" stop.
    """
    _count(max_iters, "max_iters")
    if obj.minimizer is None:
        raise MissingGroundTruthError("run needs the objective's minimizer to stop on its gap")
    return _finite(obj._check_vector(x0, "x0"), "x0")


def _gap_gate(obj, stop_gap: float) -> float:
    """Largest computed (l/2)||x - x*||^2 at which f_gap(x) <= stop_gap can hold.

    On a quadratic whose declared l and L bound the spectrum of A,
    f_gap(x) = 0.5 d'Ad >= (l/2) d'd with d = x - x*. With the unit
    roundoff u of objective's rounding model (objective._UNIT_ROUNDOFF) and
    gamma = dim u / (1 - dim u), the computed d'd is within gamma of
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
    gamma = obj.dim * _UNIT_ROUNDOFF / (1.0 - obj.dim * _UNIT_ROUNDOFF)
    err = gamma * (2.0 + gamma) * math.sqrt(obj.dim) * obj.lip / obj.ell
    if not isinstance(obj, QuadraticObjective) or err >= 1.0:
        return math.inf
    return stop_gap * ((1.0 + gamma) / (1.0 - err) + 4.0 * _UNIT_ROUNDOFF)


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
    # The stop test of _gap_reached, inline: f_gap only past the gate.
    half_ell, gate = 0.5 * obj.ell, _gap_gate(obj, stop_gap)
    x_star = obj.minimizer

    # x_k is row k of xs, which doubles when full (module docstring). Each
    # ufunc takes its output as the third positional argument, which numpy
    # parses faster than out=, and every callable of the loop is bound to a
    # local name, which Python looks up faster than an attribute.
    multiply, add, subtract, isfinite = np.multiply, np.add, np.subtract, math.isfinite
    grad, f_gap = obj.grad, obj.f_gap
    xs = x0[None, :].copy()
    x = xs[0]
    y, d, s = np.empty(dim), np.empty(dim), np.empty(dim)
    subtract(x, x_star, d)
    done = half_ell * d.dot(d) <= gate and f_gap(x) <= stop_gap
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
                x = xs[n - 1]
            x_next = xs[n]
            if n == 1:
                np.copyto(y, x)
            else:
                multiply(momentum, s, y)
                add(x, y, y)
            g = grad(y)
            multiply(g, inv_lip, g)
            subtract(y, g, x_next)
            subtract(x_next, x_star, d)
            dd = d.dot(d)
            if not isfinite(dd):
                stop_reason = "diverged"
                break
            subtract(x_next, x, s)
            n += 1
            if half_ell * dd <= gate and f_gap(x_next) <= stop_gap:
                stop_reason = "gap"
                break
            x = x_next

    return Trace(method=method, xs=xs[:n].copy(), stop_reason=stop_reason)


def _run_cg(obj, method, x0, max_iters, stop_gap, observe=None):
    """CG loop of run; each step's one product is obj.matvec.

    The private observe hook serves the noise monitor. It is called as
    observe(xs, alphas, prev_res_sqs), with the stored columns as lists of
    the Trace's rows, after each stored step that the gap stop did not
    end. A true return ends the run there with stop_reason "detected",
    before another product is taken. It must not change the columns.
    """
    matvec = obj.matvec
    unified = method == "cg_unified"
    reached = _gap_reached(obj, stop_gap)
    x_star = obj.minimizer

    x = x0.copy()
    # The initial residual is always exact; a replaced obj.matvec (noise
    # studies) changes only the one product inside each step.
    r = obj.rhs - obj.matrix @ x0
    res_sq = float(r @ r)
    r0_norm = math.sqrt(res_sq)
    threshold = (CG_CONVERGED_REL * r0_norm) ** 2

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
                # p is not stored (Trace.ps replays it), so it is updated in place.
                p *= beta_next
                p += r
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
                if k == 0:  # no displacement yet: nu_0 = 0 (module docstring)
                    x_next = x + alpha_next * r
                else:
                    nu = alpha_next * beta_next / alpha
                    x_next = x + nu * s + alpha_next * r
                s = x_next - x
            else:
                x_next = x + alpha_next * p
            r = r - alpha_next * ap
            res_sq_next = float(r @ r)
            if 0 < kept < dim:
                # Classical Gram-Schmidt restores the mutual orthogonality
                # that exact CG residuals have and floating point loses;
                # without it termination slips past dim steps. A pass that
                # keeps at least half the squared norm is orthogonal to
                # working precision; one that cancels more is repeated once,
                # and twice is enough (module docstring). The last r.r is
                # this step's res_sq and gives the basis row its norm.
                q = basis[:kept]
                before = res_sq_next
                r = r - (q @ r) @ q
                res_sq_next = float(r @ r)
                if res_sq_next < 0.5 * before:
                    r = r - (q @ r) @ q
                    res_sq_next = float(r @ r)
                if res_sq_next > 0.0:
                    np.divide(r, math.sqrt(res_sq_next), basis[kept])
                    kept += 1
            prev_sqs_last = res_sq
            res_sq = res_sq_next
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
            if observe is not None and observe(xs, alphas, prev_sqs):
                stop_reason = "detected"
                break

    return Trace(
        method=method,
        xs=np.array(xs),
        rs=np.array(rs),
        alphas=np.array(alphas),
        prev_res_sqs=np.array(prev_sqs),
        stop_reason=stop_reason,
    )
