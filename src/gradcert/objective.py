"""Smooth strongly convex objectives.

Two concrete families: convex quadratics f(x) = x'Ax/2 - b'x with symmetric
positive definite A, and l2-regularized logistic loss. Both expose curvature
bounds (ell, lip) such that

    ell/2 ||x - y||^2  <=  f(y) - f(x) - grad f(x)'(y - x)  <=  lip/2 ||x - y||^2

for all x, y, which is everything the solvers and certificates assume.

The logistic family's sigmoid is ``_sigmoid``, numpy's form of
1 / (1 + exp(-t)): numpy is the only dependency at run time.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

from .errors import MissingGroundTruthError, NotPositiveDefiniteError


def _sigmoid(t):
    """1 / (1 + exp(-t)) elementwise, the logistic function in its direct form.

    The argument of exp is capped at 709, below float64's overflow at about
    709.78, so no input overflows or warns: t < -709 gives about 1.2e-308
    where the exact value is smaller still, +-inf saturate to that and 1,
    and nan stays nan.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-t, 709.0)))


# The rounding model: float64's unit roundoff u (round to nearest; 2u =
# 2**-52 is the spacing of floats at 1). Each tolerance that scales with
# roundoff reads u here or through _roundoff_scale: potential's chain
# tolerance and identity battery, and solvers._gap_gate, which derives its
# bound from u with gamma_n = n u / (1 - n u) (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3).
_UNIT_ROUNDOFF = 2.0**-53


def _roundoff_scale(obj):
    """kappa * 2u * dim, relative: the roundoff that CG's chain and gaps drift by.

    The product is taken in that order, (kappa * 2u) * dim with kappa =
    lip / ell. potential.default_cert_tolerance scales its base with it,
    and the identity battery stops at the first gap at or below it, times
    the initial gap.
    """
    return (obj.lip / obj.ell) * (2.0 * _UNIT_ROUNDOFF) * obj.dim


# The one check of each rule on the package's input; every entry point that
# takes such a value calls these, and the CLI's argument types call them too.


def _count(value, name):
    """value as an int; ValueError unless an integer >= 1.

    A bool is not a count (True would be 1), and a float is refused even
    when integral.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _real(value):
    """Whether value is a real number within float64's range or +-inf.

    An int or float, numpy's included. A bool, a string and nan are not, and
    neither is a number past float64's range that float() would overflow
    or round to inf (the int 10**400, a long double). numpy's scalars are
    compared as Python numbers (a long double stays one): a float32
    compared with float64's largest value would overflow in the cast.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    value = value.item() if isinstance(value, np.generic) else value
    return -sys.float_info.max <= value <= sys.float_info.max or value in (-np.inf, np.inf)


def _positive(value, name, zero_ok=False):
    """value as a float; ValueError unless a real number, finite and > 0.

    zero_ok admits 0 as well, read as 0.0 whatever its sign. A bool or a
    string is refused rather than coerced, and so is a number beyond
    float64's range: the int 10**400, which float() would overflow, or a
    long double that it would round to inf.
    """
    if not (_real(value) and (0.0 <= value if zero_ok else 0.0 < value) and value < np.inf):
        least = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{name} must be a finite number {least}, got {value!r}")
    return float(value) + 0.0  # -0.0 + 0.0 is 0.0


def _curvature(ell, lip):
    """(ell, lip) as floats; ValueError unless both are bounds and ell <= lip."""
    ell, lip = _positive(ell, "ell"), _positive(lip, "lip")
    if ell > lip:
        raise ValueError(f"need ell <= lip, got ell={ell}, lip={lip}")
    return ell, lip


def _finite(arr, name):
    """arr; ValueError if any entry is nan or infinite."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


class Objective:
    """Base class: curvature bounds plus optional ground truth.

    Ground truth is the minimizer alone: None on a new objective;
    with_minimizer returns a copy carrying it. f(x) - f* is computed from
    the minimizer, never as value(x) - f*, which cancels catastrophically
    near x*. Instances are treated as immutable after construction.
    """

    def __init__(self, dim, ell, lip):
        self.dim = _count(dim, "dim")
        self.ell, self.lip = _curvature(ell, lip)
        self.minimizer = None

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def f_gap(self, x):
        """f(x) - f(x*), the stop test's gap at one point; requires ground truth.

        It equals the gap _measure_rows gives a one-row block, and takes no
        gradient.
        """
        if self.minimizer is None:
            raise MissingGroundTruthError("objective has no minimizer attached")
        xs = self._check_vector(x)[None, :]
        return float(self._gap_rows(xs, xs - self.minimizer)[0])

    def _gap_rows(self, xs, d):
        """f_gap of each row of an (n, dim) array xs, with d = xs - x*."""
        raise NotImplementedError

    def _measure_rows(self, xs, d):
        """(f(x) - f*, ||grad f(x)||) of each row of one block xs, with d = xs - x*.

        certify()'s one measurement of the iterates, made on one block of
        at most potential.GAP_BLOCK_ROWS rows at a time: each family takes one
        product, which both arrays read.
        """
        raise NotImplementedError

    def with_minimizer(self, x_star):
        """Copy carrying the minimizer x_star, the one way to attach ground truth.

        The data arrays are validated and read-only, and the curvature
        bounds are already known: the copy shares them rather than checking,
        factoring or computing anything again.
        """
        x_star = _finite(self._check_vector(x_star, "minimizer"), "minimizer")
        obj = copy.copy(self)
        obj.minimizer = x_star.copy()
        obj.minimizer.setflags(write=False)
        return obj

    def _check_vector(self, x, name="x"):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape}, expected ({self.dim},)")
        return x


class QuadraticObjective(Objective):
    """f(x) = x'Ax/2 - b'x with A symmetric positive definite.

    The constructor symmetrizes A after checking the asymmetry is at roundoff
    level, and rejects matrices that fail a Cholesky factorization. ell and
    lip are declared curvature bounds (for generated problems, the exact
    extreme eigenvalues).
    """

    def __init__(self, matrix, rhs, ell, lip):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        _finite(a, "matrix")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > 1e-12 * max(scale, 1e-300):
            raise ValueError(
                f"matrix is not symmetric: max|A - A'| = {asym:g} exceeds 1e-12 * max|A| = {1e-12 * scale:g}"
            )
        a = (a + a.T) / 2.0
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("matrix is not positive definite") from exc
        super().__init__(a.shape[0], ell, lip)
        b = _finite(self._check_vector(rhs, "rhs").copy(), "rhs")
        a.setflags(write=False)
        b.setflags(write=False)
        self.matrix = a
        self.rhs = b

    def value(self, x):
        x = self._check_vector(x)
        return float(0.5 * x @ (self.matrix @ x) - self.rhs @ x)

    def matvec(self, v):
        """A v: the one product the solvers take, AG through grad and CG directly.

        A copy may replace it (perturb's noisy copies do); value, the gaps
        and every audit read self.matrix, so they stay exact.
        """
        # ndarray.dot reaches the same BLAS product as @ with less overhead.
        return self.matrix.dot(v)

    def grad(self, x):
        return self.matvec(self._check_vector(x)) - self.rhs

    def hessian(self, x=None):
        return self.matrix

    def _gap_rows(self, xs, d):
        # 0.5 d'Ad (d = x - x*) equals f(x) - f* up to the reference solve's
        # residual and does not cancel catastrophically near x*.
        return 0.5 * np.einsum("ij,ij->i", d, d @ self.matrix)

    def _measure_rows(self, xs, d):
        # The gap as in _gap_rows, and A x - b read as A d + (A x* - b)
        # from the same product, summed in place.
        ad = d @ self.matrix
        gaps = 0.5 * np.einsum("ij,ij->i", d, ad)
        ad += self.matrix @ self.minimizer - self.rhs
        return gaps, np.sqrt(np.einsum("ij,ij->i", ad, ad))


class LogisticRidgeObjective(Objective):
    """f(x) = ridge/2 ||x||^2 + sum_i log(1 + exp(a_i'x)).

    Curvature bounds: ell = ridge exactly; lip = ridge + ||A||_2^2 / 4 with
    ||A||_2 the largest singular value from LAPACK's SVD
    (``np.linalg.norm(A, 2)``), which is backward stable and so accurate to
    a few ulps. The square is inflated by 1e-9 relative to cover that
    rounding, so the bound cannot undershoot the true Lipschitz constant.
    """

    def __init__(self, data_matrix, ridge):
        data = np.array(data_matrix, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"data_matrix must be 2-d, got shape {data.shape}")
        _finite(data, "data_matrix")
        ridge = _positive(ridge, "ridge")
        lip = ridge + np.linalg.norm(data, 2) ** 2 * (1.0 + 1e-9) / 4.0
        super().__init__(data.shape[1], ridge, lip)
        data.setflags(write=False)
        self.data_matrix = data
        self.ridge = ridge

    def value(self, x):
        x = self._check_vector(x)
        t = self.data_matrix @ x
        return float(0.5 * self.ridge * x @ x + np.sum(np.logaddexp(0.0, t)))

    def grad(self, x):
        x = self._check_vector(x)
        t = self.data_matrix @ x
        return self.ridge * x + self.data_matrix.T @ _sigmoid(t)

    def hessian(self, x):
        x = self._check_vector(x)
        sig = _sigmoid(self.data_matrix @ x)
        weights = sig * (1.0 - sig)
        return self.ridge * np.eye(self.dim) + (self.data_matrix.T * weights) @ self.data_matrix

    def _gap_rows(self, xs, diff):
        # Gap as a sum of per-sample softplus differences against x*,
        # driven by d = data (x - x*): sp(v+d) - sp(v) = log1p(sig(v)
        # expm1(d)). Every term scales with d, so the result keeps relative
        # accuracy near x* where value(x) - f* loses all its digits.
        d = diff @ self.data_matrix.T
        sig = np.broadcast_to(self._sig_star, d.shape)
        t_star = np.broadcast_to(self._t_star, d.shape)
        terms = np.empty_like(d)
        small = np.abs(d) <= 30.0
        terms[small] = np.log1p(sig[small] * np.expm1(d[small]))
        big = ~small
        if np.any(big):
            # far from x* there is nothing to cancel; direct difference
            terms[big] = np.logaddexp(0.0, t_star[big] + d[big]) - np.logaddexp(
                0.0, t_star[big]
            )
        ridge_part = 0.5 * self.ridge * np.einsum("ij,ij->i", diff, xs + self.minimizer)
        return np.sum(terms, axis=1) + ridge_part

    def _measure_rows(self, xs, d):
        # The gradient rows ridge x + sig(data x)' data in one pass.
        grads = self.ridge * xs + _sigmoid(xs @ self.data_matrix.T) @ self.data_matrix
        return self._gap_rows(xs, d), np.sqrt(np.einsum("ij,ij->i", grads, grads))

    def with_minimizer(self, x_star):
        obj = super().with_minimizer(x_star)
        # the data-space image of x* and its sigmoid, reused by every gap
        obj._t_star = obj.data_matrix @ obj.minimizer
        obj._sig_star = _sigmoid(obj._t_star)
        return obj


def newton_reference_minimizer(obj, x0=None):
    """High-accuracy minimizer by damped Newton with dense solves.

    Runs until ||grad f(x)|| <= 1e-13 * max(1, ||grad f(x0)||), for at most
    100 Newton steps. Requires obj.hessian. Used as the reference run that
    defines ground truth for the non-quadratic family.
    """
    x = np.zeros(obj.dim) if x0 is None else obj._check_vector(x0, "x0").copy()
    g = obj.grad(x)
    target = 1e-13 * max(1.0, float(np.linalg.norm(g)))
    fx = obj.value(x)
    for _ in range(100):
        if float(np.linalg.norm(g)) <= target:
            break
        h = obj.hessian(x)
        step = np.linalg.solve(h, g)
        predicted = float(g @ step)
        if predicted <= 1e-13 * max(1.0, abs(fx)):
            # Decrease below value roundoff: backtracking would stall on
            # noise, while the full step is safe this close to x*.
            x_new = x - step
            f_new = obj.value(x_new)
        else:
            t = 1.0
            # Armijo backtracking; plain Newton can overshoot far from x*
            while True:
                x_new = x - t * step
                f_new = obj.value(x_new)
                if f_new <= fx - 1e-4 * t * predicted or t < 1e-12:
                    break
                t *= 0.5
        x, fx = x_new, f_new
        g = obj.grad(x)
    if float(np.linalg.norm(g)) > target:
        raise RuntimeError("Newton reference run did not reach its gradient tolerance")
    return x
