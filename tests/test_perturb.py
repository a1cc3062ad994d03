"""Noise injection and certificate-based detection."""

import numpy as np
import pytest

from gradcert.generate import SpectrumSpec, generate_with_start
from gradcert.perturb import (
    DetectionReport,
    NoiseModel,
    detect_inexactness,
    noisy_matvec,
    sweep,
)


def _problem(dim, kappa, seed=0, layout="log_uniform"):
    spec = SpectrumSpec(dim=dim, ell=1.0, lip=float(kappa), layout=layout, seed=seed)
    return generate_with_start(spec)


def test_noise_model_validation():
    NoiseModel(magnitude=0.0)
    for magnitude in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseModel(magnitude=magnitude)


def test_eta_zero_is_bitwise_passthrough():
    obj, _, x0 = _problem(17, 50.0)
    p = x0 + 0.25
    clean = obj.matrix @ p
    out = noisy_matvec(obj, NoiseModel(magnitude=0.0, seed=9), p, call_index=4)
    assert np.array_equal(out, clean)


def test_noise_magnitude_is_relative_and_exact():
    obj, _, x0 = _problem(12, 30.0, seed=2)
    noise = NoiseModel(magnitude=1e-3, seed=5)
    for idx in range(4):
        p = SpectrumSpec(dim=12, ell=1.0, lip=2.0, layout="uniform", seed=idx)
        vec = np.linspace(1.0, 2.0, 12) * (idx + 1)
        clean = obj.matrix @ vec
        out = noisy_matvec(obj, noise, vec, call_index=idx)
        # unit-sphere direction scaled by eta ||A p||
        assert np.linalg.norm(out - clean) == pytest.approx(
            1e-3 * np.linalg.norm(clean), rel=1e-12
        )


def test_noise_on_zero_vector_is_zero():
    obj, _, _ = _problem(6, 10.0)
    out = noisy_matvec(obj, NoiseModel(magnitude=0.5, seed=1), np.zeros(6), call_index=0)
    assert np.array_equal(out, np.zeros(6))


def test_noise_deterministic_per_seed_and_call():
    obj, _, _ = _problem(9, 40.0, seed=3)
    p = np.arange(1.0, 10.0)
    a = noisy_matvec(obj, NoiseModel(magnitude=1e-2, seed=7), p, call_index=3)
    b = noisy_matvec(obj, NoiseModel(magnitude=1e-2, seed=7), p, call_index=3)
    c = noisy_matvec(obj, NoiseModel(magnitude=1e-2, seed=7), p, call_index=4)
    d = noisy_matvec(obj, NoiseModel(magnitude=1e-2, seed=8), p, call_index=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_exact_run_never_violates():
    obj, x_star, x0 = _problem(50, 100.0)
    report = detect_inexactness(obj, x_star, NoiseModel(magnitude=0.0), 60, x0=x0)
    assert report.first_violation is None
    assert not report.detected
    assert report.eta == 0.0
    d0 = x0 - x_star
    assert report.psis[0] == pytest.approx(float(d0 @ d0) + 2.0 * obj.f_gap(x0) / obj.ell, rel=1e-12)


def test_visible_noise_is_detected():
    obj, x_star, x0 = _problem(100, 1e4)
    report = detect_inexactness(obj, x_star, NoiseModel(magnitude=1e-2, seed=0), 600, x0=x0)
    assert report.detected
    assert isinstance(report.first_violation, int)
    assert 1 <= report.first_violation <= report.iterations_run
    assert report.max_drift > 0.0


def test_detection_rejects_bad_inputs():
    obj, x_star, x0 = _problem(8, 10.0)
    with pytest.raises(ValueError):
        detect_inexactness(obj, x_star, NoiseModel(magnitude=0.0), 0, x0=x0)
    with pytest.raises(TypeError):
        detect_inexactness(object(), x_star, NoiseModel(magnitude=0.0), 5, x0=x0)


def test_sweep_orders_and_dedups():
    obj, x_star, x0 = _problem(12, 50.0, seed=4)
    reports = sweep(obj, x_star, [1e-3, 0.0, 1e-3], [1, 0, 1], 20, x0=x0)
    keys = [(r.eta, r.seed) for r in reports]
    assert keys == [(0.0, 0), (0.0, 1), (1e-3, 0), (1e-3, 1)]
    assert all(isinstance(r, DetectionReport) for r in reports)


def test_sweep_is_reproducible():
    obj, x_star, x0 = _problem(25, 1e3, seed=6)
    first = sweep(obj, x_star, [1e-4], [2], 80, x0=x0)
    second = sweep(obj, x_star, [1e-4], [2], 80, x0=x0)
    assert first[0].first_violation == second[0].first_violation
    assert np.array_equal(first[0].psis, second[0].psis)
