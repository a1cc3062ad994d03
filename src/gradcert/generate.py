"""Seeded SPD test-problem generator with exactly controlled spectra.

A problem is A = Q diag(lams) Q', b, x0 where Q is a product of dim
Householder reflectors built from seeded gaussian vectors and lams follows
one of three layouts between the declared extremes. Because the spectrum is
chosen up front, generated problems carry their exact conditioning as ground
truth instead of estimating it afterwards: ell and lip are the declared
extremes. A caller that wants to check them reads the computed spectrum off
LAPACK, ``np.linalg.eigvalsh(obj.matrix)``.

Draw order (one splitmix64 stream per problem, seeded with the spec's seed):
reflector vectors v_1 .. v_dim (dim gaussians each), then b (dim gaussians),
then x0 (dim gaussians). A = H_1 ... H_dim diag(lams) H_dim ... H_1 with
H_i = I - 2 v_i v_i' / ||v_i||^2. This order is part of the reproducibility
contract: identical (dim, ell, lip, layout, seed) must reproduce A, b, x0
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NotPositiveDefiniteError
from .objective import QuadraticObjective
from .rng import SplitMix64

LAYOUTS = ("log_uniform", "uniform", "two_cluster")


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for one generated problem."""

    dim: int
    ell: float
    lip: float
    layout: str
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 < self.ell <= self.lip):
            raise ValueError(f"need 0 < ell <= lip, got ell={self.ell}, lip={self.lip}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}, expected one of {LAYOUTS}")
        if self.dim == 1 and self.ell != self.lip:
            raise ValueError("dim=1 admits a single eigenvalue; ell must equal lip")


@dataclass
class GroundTruth:
    """Minimizer and optimal value as a separate record.

    An objective carries the same pair as ``minimizer``/``min_value``; this
    record is the form ``detect_inexactness`` and ``sweep`` take it in.
    """

    x_star: np.ndarray
    f_star: float


def eigenvalue_layout(spec: SpectrumSpec) -> np.ndarray:
    """Ascending spectrum for a spec, endpoints forced to ell/lip exactly."""
    n, ell, lip = spec.dim, spec.ell, spec.lip
    if spec.layout == "log_uniform":
        lams = np.exp(np.linspace(np.log(ell), np.log(lip), n))
    elif spec.layout == "uniform":
        lams = np.linspace(ell, lip, n)
    else:  # two_cluster
        low = (n + 1) // 2
        lams = np.concatenate([np.full(low, ell), np.full(n - low, lip)])
    lams[0] = ell
    lams[-1] = lip
    return lams


def _reflectors(spec: SpectrumSpec, stream: SplitMix64) -> np.ndarray:
    """Row i is v_{i+1}: the dim reflector vectors drawn as one block."""
    return stream.gaussian_vector(spec.dim * spec.dim).reshape(spec.dim, spec.dim)


def _apply_two_sided(b: np.ndarray, vs: np.ndarray) -> np.ndarray:
    # B <- H_i B H_i for i = dim .. 1 turns diag(lams) into Q diag(lams) Q'
    for v in reversed(vs):
        c = 2.0 / float(v @ v)
        b = b - np.outer(v * c, v @ b)
        b = b - np.outer(b @ v, v * c)
    return b


def generate_arrays(spec: SpectrumSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, b, x0) for a spec, following the documented draw order."""
    stream = SplitMix64(spec.seed)
    vs = _reflectors(spec, stream)
    b = stream.gaussian_vector(spec.dim)
    x0 = stream.gaussian_vector(spec.dim)
    a = _apply_two_sided(np.diag(eigenvalue_layout(spec)), vs)
    a = (a + a.T) / 2.0
    return a, b, x0


def reference_minimizer(obj: QuadraticObjective) -> np.ndarray:
    """Solve A x = b by Cholesky with one step of iterative refinement.

    One refinement step in working precision pushes the residual to the
    1e-12 * (||A||_F ||x|| + ||b||) backward-error contract without resorting
    to extended precision.
    """
    a, b = obj.matrix, obj.rhs
    try:
        factor = cho_factor(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    x = cho_solve(factor, b)
    x = x + cho_solve(factor, b - a @ x)
    return x


def generate_with_start(spec: SpectrumSpec) -> tuple[QuadraticObjective, GroundTruth, np.ndarray]:
    """Generated objective with ground truth attached, plus the seeded x0."""
    a, b, x0 = generate_arrays(spec)
    obj = QuadraticObjective(a, b, spec.ell, spec.lip)
    x_star = reference_minimizer(obj)
    f_star = obj.value(x_star)
    return obj.with_minimizer(x_star, f_star), GroundTruth(x_star, f_star), x0

