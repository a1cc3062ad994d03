"""Spectrum layouts, orthogonal factors, and ground-truth quality."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from gradcert import QuadraticObjective, SpectrumSpec, generate_with_start
from aids import materialize_orthogonal
from gradcert.generate import (
    _orthogonal_factor,
    _reflectors,
    eigenvalue_layout,
    generate_arrays,
    reference_minimizer,
)
from gradcert.perturb import DIRECTION_BLOCK, NoiseModel, noisy_matvec
from gradcert.problems import GROUND_TRUTH_TOL, make_logistic_problem
from gradcert.rng import SplitMix64, substream_seed

REPO = Path(__file__).resolve().parent.parent


def test_layout_endpoints_are_exact():
    for layout in ("log_uniform", "uniform", "two_cluster"):
        lams = eigenvalue_layout(SpectrumSpec(12, 2.0, 500.0, layout, 0))
        assert lams[0] == 2.0
        assert lams[-1] == 500.0
        assert np.all(np.diff(lams) >= 0)


def test_two_cluster_split():
    lams = eigenvalue_layout(SpectrumSpec(5, 1.0, 100.0, "two_cluster", 0))
    assert np.sum(lams == 1.0) == 3  # ceil(5/2) at the bottom
    assert np.sum(lams == 100.0) == 2


def test_log_uniform_is_geometric():
    lams = eigenvalue_layout(SpectrumSpec(4, 1.0, 1000.0, "log_uniform", 0))
    assert np.allclose(lams, [1.0, 10.0, 100.0, 1000.0], rtol=1e-12)


def test_unknown_layout_rejected():
    with pytest.raises(ValueError):
        SpectrumSpec(4, 1.0, 10.0, "clustered", 0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", 1.9),
        ("seed", 1.0),
        ("seed", "3"),
        ("seed", -1),
        ("seed", 2**64),
        ("dim", 2.5),
        ("dim", 3.0),
        ("dim", 0),
        ("lip", np.inf),
        ("ell", np.inf),
        ("ell", np.nan),
    ]
    # a bool or a string is refused, not read as 1 or compared into a TypeError
    + [("dim", bad) for bad in (True, np.True_, "3", np.nan, np.inf, -1)]
    + [(field, bad) for field in ("ell", "lip") for bad in (True, np.True_, "3", 0, -1)]
    + [("lip", np.nan)]
    + [("seed", bad) for bad in (True, np.True_, np.nan, np.inf)]
    # an int beyond float64's range used to raise OverflowError
    + [pytest.param(field, 10**400, id=f"{field}-10**400") for field in ("ell", "lip")],
)
def test_spectrum_spec_refuses_bad_input(field, value):
    # refused up front, not truncated to another seed's or dim's problem or
    # left to fail later in generation
    spec = {"dim": 4, "ell": 1.0, "lip": 10.0, "layout": "uniform", "seed": 0}
    with pytest.raises(ValueError, match=field):
        SpectrumSpec(**{**spec, field: value})


def test_dim_one_needs_flat_spectrum():
    with pytest.raises(ValueError):
        SpectrumSpec(1, 1.0, 2.0, "uniform", 0)
    obj, _, _ = generate_with_start(SpectrumSpec(1, 3.0, 3.0, "uniform", 0))
    assert obj.matrix.shape == (1, 1)
    assert obj.matrix[0, 0] == pytest.approx(3.0)


def test_generation_is_deterministic():
    spec = SpectrumSpec(20, 1.0, 100.0, "log_uniform", 9)
    a1, t1, x1 = generate_with_start(spec)
    a2, t2, x2 = generate_with_start(spec)
    assert np.array_equal(a1.matrix, a2.matrix)
    assert np.array_equal(a1.rhs, a2.rhs)
    assert np.array_equal(x1, x2)
    assert np.array_equal(t1, t2)


def test_different_seeds_differ():
    spec_a = SpectrumSpec(10, 1.0, 10.0, "uniform", 0)
    spec_b = SpectrumSpec(10, 1.0, 10.0, "uniform", 1)
    a, _, _ = generate_with_start(spec_a)
    b, _, _ = generate_with_start(spec_b)
    assert not np.array_equal(a.matrix, b.matrix)


def test_orthogonal_factor_quality():
    for dim in (1, 3, 17, 50, 200):
        spec = SpectrumSpec(dim, 1.0, 1.0 if dim == 1 else 10.0, "uniform", dim)
        want = materialize_orthogonal(spec)
        q = _orthogonal_factor(*_reflectors(spec, SplitMix64(spec.seed)))
        # the compact WY form against the rank-1 product, and both orthogonal
        assert np.abs(q - want).max() <= 1e-13, dim
        for factor in (q, want):
            defect = np.linalg.norm(factor.T @ factor - np.eye(dim), "fro")
            assert defect <= 1e-12 * dim, dim


def test_matrix_matches_declared_spectrum():
    spec = SpectrumSpec(25, 0.5, 200.0, "two_cluster", 4)
    obj, _, _ = generate_with_start(spec)
    eigs = np.linalg.eigvalsh(obj.matrix)
    assert eigs[0] == pytest.approx(0.5, rel=1e-10)
    assert eigs[-1] == pytest.approx(200.0, rel=1e-10)


def test_extreme_eigenvalues_agree_with_declaration():
    # LAPACK's symmetric eigensolver is backward stable, so the computed
    # extremes sit within O(eps ||A||) of the declared ones on every layout
    for layout, dim, kappa in (
        ("log_uniform", 25, 100.0),
        ("two_cluster", 60, 1e4),
        ("uniform", 40, 1000.0),
    ):
        obj, _, _ = generate_with_start(SpectrumSpec(dim, 1.0, kappa, layout, 6))
        eigs = np.linalg.eigvalsh(obj.matrix)
        assert eigs[0] == pytest.approx(1.0, rel=1e-10), layout
        assert eigs[-1] == pytest.approx(kappa, rel=1e-10), layout


def test_ground_truth_residual():
    spec = SpectrumSpec(40, 1.0, 1e4, "log_uniform", 2)
    obj, x_star, x0 = generate_with_start(spec)
    res = np.linalg.norm(obj.matrix @ x_star - obj.rhs)
    assert res <= 1e-10 * max(1.0, np.linalg.norm(obj.rhs))
    assert x_star is obj.minimizer
    assert obj.f_gap(x0) >= 0.0


def test_with_minimizer_shares_the_validated_arrays():
    spec = SpectrumSpec(12, 1.0, 100.0, "log_uniform", 3)
    a, b, _, q, lams = generate_arrays(spec)
    bare = QuadraticObjective(a, b, spec.ell, spec.lip)
    x_star = reference_minimizer(bare, q, lams)
    obj = bare.with_minimizer(x_star)
    # no second copy, symmetry check or factorization of A
    assert obj.matrix is bare.matrix and obj.rhs is bare.rhs
    assert bare.minimizer is None
    assert np.array_equal(obj.minimizer, x_star) and not obj.minimizer.flags.writeable
    with pytest.raises(ValueError):
        bare.with_minimizer(np.zeros(spec.dim - 1))
    # generation attaches exactly the reference solve's bits
    gen_obj, gen_x_star, _ = generate_with_start(spec)
    assert np.array_equal(gen_x_star, x_star) and gen_x_star is gen_obj.minimizer



@pytest.mark.parametrize("layout", ["log_uniform", "uniform", "two_cluster"])
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("dim", [10, 50, 200])
def test_minimizer_accuracy_on_grid(dim, kappa, layout):
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, kappa, layout, dim))
    a, b, x_star = obj.matrix, obj.rhs, obj.minimizer
    # the documented backward-error contract; the refinement step keeps it
    # at working precision (without that step it reached 3e-16 on this grid)
    scale = np.linalg.norm(a, "fro") * np.linalg.norm(x_star) + np.linalg.norm(b)
    backward = np.linalg.norm(a @ x_star - b) / scale
    assert backward <= 1e-12
    assert backward <= 1e-16
    # the gate load_problem applies to a stored minimizer
    g_zero = np.linalg.norm(obj.grad(x0))
    assert np.linalg.norm(obj.grad(x_star)) <= GROUND_TRUTH_TOL * max(1.0, g_zero)
    # an independent solve: Cholesky with one refinement step; both carry a
    # forward error of about kappa * eps
    factor = cho_factor(a)
    x = cho_solve(factor, b)
    x = x + cho_solve(factor, b - a @ x)
    assert np.linalg.norm(x_star - x) <= 1e-9 * np.linalg.norm(x)


_DIGESTS = """
import hashlib
from gradcert import SpectrumSpec, generate_with_start
for dim in (10, 200, 300):
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, 1e4, "log_uniform", 1))
    for arr in (obj.matrix, obj.rhs, x0, obj.minimizer):
        print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


def test_generation_is_bit_exact_at_any_blas_thread_count():
    # OpenBLAS threads a factorization from n ~ 100 up, and a matrix-matrix
    # product (dgemm, dsyrk) from about n = 300, and their bits then depend
    # on the thread count; generation must use nothing like that
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _DIGESTS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 12
    assert digests[0] == digests[1]

# The draw contract, pinned against scalar ``gaussian()`` draws. Each
# reference feeds byte-identical inputs through the same operations as the
# generator, so a mismatch means the draws moved, whatever the BLAS.
CONTRACT_SEEDS = (0, 2**64 - 1)


def _scalar_gaussians(stream, n):
    return np.array([stream.gaussian() for _ in range(n)], dtype=float)


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("layout", ["log_uniform", "uniform", "two_cluster"])
@pytest.mark.parametrize("dim", [1, 10, 200])
def test_generate_arrays_match_scalar_draws(dim, layout):
    for seed in CONTRACT_SEEDS:
        spec = SpectrumSpec(dim, 1.0, 1.0 if dim == 1 else 1e4, layout, seed)
        stream = SplitMix64(seed)
        vs = _scalar_gaussians(stream, dim * dim).reshape(dim, dim)
        cs = np.array([2.0 / float(v @ v) for v in vs])
        b = _scalar_gaussians(stream, dim)
        x0 = _scalar_gaussians(stream, dim)
        lams = eigenvalue_layout(spec)
        q = _orthogonal_factor(vs, cs)
        a = np.array([q @ (lams * row) for row in q])
        got = generate_arrays(spec)
        names = ("A", "b", "x0", "q", "lams")
        assert len(got) == len(names)
        for name, want, have in zip(names, (a, b, x0, q, lams), got):
            assert _same_bytes(have, want), (name, seed)
        # the constructor symmetrizes A, so every caller's matrix is the
        # symmetrized reference
        matrix = QuadraticObjective(got[0], b, spec.ell, spec.lip).matrix
        assert _same_bytes(matrix, (a + a.T) / 2.0), ("matrix", seed)


@pytest.mark.parametrize("dim, n_samples", [(1, 1), (5, 30)])
def test_logistic_problem_matches_scalar_draws(dim, n_samples):
    for seed in CONTRACT_SEEDS:
        stream = SplitMix64(seed)
        data = _scalar_gaussians(stream, n_samples * dim).reshape(n_samples, dim)
        x0 = _scalar_gaussians(stream, dim)
        spec = make_logistic_problem(dim, n_samples, 1e-3, seed)
        assert _same_bytes(spec.objective.data_matrix, data), seed
        assert _same_bytes(spec.x0, x0), seed


def test_noisy_matvec_matches_scalar_draws():
    dim = 100
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, 1e4, "log_uniform", 0))
    for seed in CONTRACT_SEEDS:
        # magnitude 1, so a 1-ulp change in a draw survives the sum with A p
        noise = NoiseModel(1.0, seed)
        # across the first block boundary, in both directions
        for k in (0, 1, 2, 3, DIRECTION_BLOCK - 1, DIRECTION_BLOCK, DIRECTION_BLOCK + 1, 2):
            stream = SplitMix64(substream_seed(seed, k))
            g = _scalar_gaussians(stream, dim)  # nonzero, so no redraw
            u = g / float(np.linalg.norm(g))
            out = obj.matrix @ x0
            want = out + noise.magnitude * float(np.linalg.norm(out)) * u
            assert _same_bytes(noisy_matvec(obj, noise, x0, k), want), (seed, k)
