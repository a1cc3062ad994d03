"""Small dense linear-algebra helpers."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .rng import SplitMix64

# Internal seed for power-iteration start vectors; results are deterministic.
_START_SEED = 0x9E37_0001


def power_method(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    *,
    rtol: float = 1e-8,
    max_iters: int = 100_000,
    shift_origin: float | None = None,
) -> tuple[float, np.ndarray, int, bool]:
    """Dominant eigenvalue of a symmetric PSD operator by power iteration.

    Returns (eigenvalue estimate, unit vector, iterations used, converged).
    Convergence is certified, not guessed: for a symmetric operator some
    eigenvalue lies within ||Mv - theta v|| of the Rayleigh quotient theta,
    so the iteration stops once that residual drops to rtol times the
    quantity being estimated. That quantity is |theta| itself, or
    |shift_origin - theta| when the caller is estimating a back-shifted
    eigenvalue (sigma - theta) and wants ITS relative error controlled.
    One matvec per iteration.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    v = SplitMix64(_START_SEED).gaussian_vector(dim)
    v /= np.linalg.norm(v)
    theta = 0.0
    for it in range(1, max_iters + 1):
        w = matvec(v)
        theta = float(v @ w)
        resid = float(np.linalg.norm(w - theta * v))
        scale = abs(shift_origin - theta) if shift_origin is not None else abs(theta)
        if resid <= rtol * max(scale, 1e-300):
            return theta, v, it, True
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # operator annihilates v; no progress possible
            return 0.0, v, it, True
        v = w / norm
    return theta, v, max_iters, False


def spectral_norm_sq(matrix: np.ndarray) -> float:
    """Largest eigenvalue of matrix^T matrix (squared spectral norm).

    Certified to 1e-10 relative error within 10,000 power iterations;
    raises if the certificate is not reached, since callers use this as a
    smoothness upper bound.
    """
    m = np.asarray(matrix, dtype=float)

    def gram(v: np.ndarray) -> np.ndarray:
        return m.T @ (m @ v)

    lam, _, iters, converged = power_method(gram, m.shape[1], rtol=1e-10, max_iters=10_000)
    if not converged:
        from .errors import EigenEstimateError

        raise EigenEstimateError(
            f"spectral norm estimate did not certify within {iters} iterations",
            lambda_max=lam,
        )
    return lam
