"""Seeded SPD test-problem generator with exactly controlled spectra.

A problem is A = Q diag(lams) Q', b, x0 where Q is a product of dim
Householder reflectors built from seeded gaussian vectors and lams follows
one of three layouts between the declared extremes. Because the spectrum is
chosen up front, generated problems carry their exact conditioning as ground
truth instead of estimating it afterwards: ell and lip are the declared
extremes. A caller that wants to check them reads the computed spectrum off
LAPACK, ``np.linalg.eigvalsh(obj.matrix)``. The minimizer x_star is the
problem's only other ground truth; ``generate_with_start`` attaches it to
the objective.

Draw order (one splitmix64 stream per problem, seeded with the spec's seed):
reflector vectors v_1 .. v_dim (dim gaussians each), then b (dim gaussians),
then x0 (dim gaussians). A = H_1 ... H_dim diag(lams) H_dim ... H_1 with
H_i = I - 2 v_i v_i' / ||v_i||^2. This order is part of the reproducibility
contract: identical (dim, ell, lip, layout, seed) must reproduce A, b, x0
and the minimizer x_star bit for bit. x_star is solved through the same
reflectors and lams, never through a factorization of A, and generation
uses only vector operations and matrix-vector products, whose bits do not
depend on the BLAS thread count (a test checks 1 against 2 OpenBLAS
threads); so neither does the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _reflectors(spec: SpectrumSpec, stream: SplitMix64) -> tuple[np.ndarray, np.ndarray]:
    """(vs, cs): row i of vs is v_{i+1}, the dim reflector vectors drawn as
    one block, and cs[i] = 2 / (v_{i+1} . v_{i+1}), so H_i = I - c_i v_i v_i'."""
    vs = stream.gaussian_vector(spec.dim * spec.dim).reshape(spec.dim, spec.dim)
    cs = np.array([2.0 / float(v @ v) for v in vs])
    return vs, cs


def _apply_two_sided(b: np.ndarray, vs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    # B <- H_i B H_i for i = dim .. 1, in place, turns diag(lams) into Q diag(lams) Q'
    outer = np.empty_like(b)
    for v, c in zip(vs[::-1], cs[::-1]):
        vc = v * c
        np.subtract(b, np.outer(vc, v @ b, out=outer), out=b)
        np.subtract(b, np.outer(b @ v, vc, out=outer), out=b)
    return b


def generate_arrays(spec: SpectrumSpec) -> tuple[np.ndarray, ...]:
    """(A, b, x0, vs, cs, lams) for a spec, following the documented draw order.

    The last three are the factors A was built from, A = Q diag(lams) Q'
    with Q = H_1 ... H_dim (see ``_reflectors``), so that the minimizer
    needs no factorization of A.
    """
    stream = SplitMix64(spec.seed)
    vs, cs = _reflectors(spec, stream)
    b = stream.gaussian_vector(spec.dim)
    x0 = stream.gaussian_vector(spec.dim)
    lams = eigenvalue_layout(spec)
    a = _apply_two_sided(np.diag(lams), vs, cs)
    a = (a + a.T) / 2.0
    return a, b, x0, vs, cs, lams


def _reflect(x: np.ndarray, vs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    # x <- H_k x for each row k of vs in order, in place
    for v, c in zip(vs, cs):
        x -= v * (c * (v @ x))
    return x


def reference_minimizer(
    obj: QuadraticObjective, vs: np.ndarray, cs: np.ndarray, lams: np.ndarray
) -> np.ndarray:
    """Solve A x = b through A's own factors, with one step of iterative refinement.

    A^-1 r = Q diag(lams)^-1 Q' r, where Q' = H_dim ... H_1 applies H_1
    first and Q applies H_dim first: two passes over the reflectors per
    solve, four in all, and no factorization. The refinement step's
    residual is taken against the stored ``obj.matrix``, which pushes the
    backward error to the 1e-12 * (||A||_F ||x|| + ||b||) contract in
    working precision. Every operation is a vector one or a matrix-vector
    product, so the bits do not depend on the BLAS thread count.
    """

    def solve(r):
        y = _reflect(r.copy(), vs, cs)
        y /= lams
        return _reflect(y, vs[::-1], cs[::-1])

    x = solve(obj.rhs)
    return x + solve(obj.rhs - obj.matrix @ x)


def generate_with_start(spec: SpectrumSpec) -> tuple[QuadraticObjective, np.ndarray, np.ndarray]:
    """(obj, x_star, x0): the generated objective with its minimizer attached,
    that minimizer (``obj.minimizer``) and the seeded start point."""
    a, b, x0, vs, cs, lams = generate_arrays(spec)
    obj = QuadraticObjective(a, b, spec.ell, spec.lip)
    obj = obj.with_minimizer(reference_minimizer(obj, vs, cs, lams))
    return obj, obj.minimizer, x0

