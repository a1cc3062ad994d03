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
then x0 (dim gaussians). A = Q diag(lams) Q' with Q = H_1 ... H_dim and
H_i = I - 2 v_i v_i' / ||v_i||^2. This order is part of the reproducibility
contract: identical (dim, ell, lip, layout, seed) must reproduce A, b, x0
and the minimizer x_star bit for bit.

Q is formed once, densely, from the compact WY form of the reflectors,
Q = I - V' T V (Schreiber and Van Loan, 1989); A is assembled row by row
from Q and lams, and x_star is solved through Q and lams, never through a
factorization of A. Generation uses only vector operations and
matrix-vector products, never a matrix-matrix product: OpenBLAS threads
dgemm and dsyrk from about dim 300 and a factorization from about dim 100,
and their bits then depend on the thread count, while those of its gemv do
not (a test checks 1 against 2 OpenBLAS threads at dims 10, 200 and 300);
so neither does the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import QuadraticObjective, _count, _curvature
from .rng import SplitMix64, _seed_word

LAYOUTS = ("log_uniform", "uniform", "two_cluster")


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for one generated problem.

    dim is an integer >= 1, ell and lip are finite numbers with
    0 < ell <= lip, and seed is an integer in [0, 2**64); anything else,
    a bool or a string included, raises ValueError.
    """

    dim: int
    ell: float
    lip: float
    layout: str
    seed: int

    def __post_init__(self):
        _count(self.dim, "dim")
        _curvature(self.ell, self.lip)
        _seed_word(self.seed)
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


def _orthogonal_factor(vs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Q = H_1 ... H_dim as a dense matrix, from its compact WY form.

    Q = I - V' T V, where row i of V is v_i (the rows of ``vs``) and T is
    upper triangular with T[i, i] = c_i and, by LAPACK dlarft's forward
    recurrence, T[:i, i] = -c_i T[:i, :i] (V[:i] v_i). T's rows are then
    overwritten with those of W = T V, and Q[i] = e_i - V[:, i] W. Every
    product is a matrix-vector one (see the module docstring), and the
    only dim x dim arrays made are T and Q.
    """
    n = cs.size
    t = np.zeros((n, n))
    row = np.empty(n)
    for i in range(n):
        t[i, i] = cs[i]
        np.dot(t[:i, :i], np.dot(vs[:i], vs[i]), out=row[:i])
        t[:i, i] = row[:i] * -cs[i]
    for i in range(n):
        # row i of T V needs only row i of T, which is zero left of i
        np.dot(t[i, i:], vs[i:], out=row)
        t[i] = row
    q = np.empty((n, n))
    for i in range(n):
        np.dot(vs[:, i], t, out=q[i])
        np.negative(q[i], out=q[i])
        q[i, i] += 1.0
    return q


def generate_arrays(spec: SpectrumSpec) -> tuple[np.ndarray, ...]:
    """(A, b, x0, q, lams) for a spec, following the documented draw order.

    The last two are the factors A was built from, A = Q diag(lams) Q' with
    Q = H_1 ... H_dim (see ``_orthogonal_factor``), so that the minimizer
    needs no factorization of A. Row i of A is Q (lams * Q[i]), one
    matrix-vector product written in place; A is symmetric up to roundoff,
    and QuadraticObjective's constructor, which checks that, symmetrizes it.
    """
    stream = SplitMix64(spec.seed)
    vs, cs = _reflectors(spec, stream)
    b = stream.gaussian_vector(spec.dim)
    x0 = stream.gaussian_vector(spec.dim)
    lams = eigenvalue_layout(spec)
    q = _orthogonal_factor(vs, cs)
    a = np.empty_like(q)
    row = np.empty_like(lams)
    for i in range(spec.dim):
        np.multiply(lams, q[i], out=row)
        np.dot(q, row, out=a[i])
    return a, b, x0, q, lams


def reference_minimizer(obj: QuadraticObjective, q: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Solve A x = b through A's own factors, with one step of iterative refinement.

    A^-1 r = Q diag(lams)^-1 Q' r: two matrix-vector products with the
    generator's Q per solve, four in all, and no factorization. The
    refinement step's residual is taken against the stored ``obj.matrix``,
    which pushes the backward error to the
    1e-12 * (||A||_F ||x|| + ||b||) contract in working precision. Every
    operation is a vector one or a matrix-vector product, so the bits do
    not depend on the BLAS thread count.
    """

    def solve(r):
        return np.dot(q, np.dot(r, q) / lams)

    x = solve(obj.rhs)
    return x + solve(obj.rhs - obj.matrix @ x)


def generate_with_start(spec: SpectrumSpec) -> tuple[QuadraticObjective, np.ndarray, np.ndarray]:
    """(obj, x_star, x0): the generated objective with its minimizer attached,
    that minimizer (``obj.minimizer``) and the seeded start point."""
    a, b, x0, q, lams = generate_arrays(spec)
    obj = QuadraticObjective(a, b, spec.ell, spec.lip)
    obj = obj.with_minimizer(reference_minimizer(obj, q, lams))
    return obj, obj.minimizer, x0

