"""Noise injection and certificate-based detection."""

import functools
import itertools
import math

import numpy as np
import pytest

from gradcert import perturb, solvers
from gradcert.generate import SpectrumSpec, generate_with_start
from gradcert.objective import QuadraticObjective
from gradcert.perturb import (
    DIRECTION_BLOCK,
    DetectionReport,
    NoiseModel,
    _directions,
    detect_inexactness,
    noisy_matvec,
    sweep,
)
from gradcert.rng import SplitMix64, substream_seed


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


@pytest.mark.parametrize(
    "eta, stop_reason, first_violation",
    [(1e300, "not_positive_definite", 1), (1e308, "diverged", 0)],
)
def test_overflowing_noise_ends_the_run(eta, stop_reason, first_violation):
    # at 1e308 the noisy p'Ap overflows to nan: the run ends there, with no
    # RuntimeWarning (an error in this suite), instead of iterating on nan;
    # at 1e300 the chain fails at step 1 before the breakdown at step 3; at
    # 1e308 nothing failed before it, so the breakdown step is the detection
    obj, x_star, x0 = _problem(10, 1e2)
    report = detect_inexactness(obj, x_star, NoiseModel(magnitude=eta), 600, x0=x0)
    assert report.stop_reason == stop_reason
    assert report.iterations_run < obj.dim
    assert np.all(np.isfinite(report.psis))
    assert report.detected and report.first_violation == first_violation


def test_gap_telescoping_detects_moderate_noise_early():
    # criterion 10's instance at eta 1e-4: the chain alone first fails at a
    # median step of 56.5 over these seeds; the gap telescoping, which
    # certify() also checks on CG, fires within a few steps
    obj, x_star, x0 = _problem(100, 1e4)
    reports = sweep(obj, x_star, [1e-4], range(10), 600, x0=x0)
    hits = [r.first_violation for r in reports]
    assert all(h is not None for h in hits)
    assert np.median(hits) <= 12


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


def _reference_noisy_matvec(obj, noise, p, call_index):
    # one stream per call, as noisy_matvec defines its direction
    out = obj.matrix @ p
    u = SplitMix64(substream_seed(noise.seed, call_index)).unit_vector(obj.dim)
    return out + noise.magnitude * float(np.linalg.norm(out)) * u


def test_noisy_matvec_matches_per_call_draws_in_any_order():
    obj, _, x0 = _problem(30, 1e3, seed=1)
    noise = NoiseModel(magnitude=1.0, seed=12)
    indexes = (0, DIRECTION_BLOCK - 1, DIRECTION_BLOCK, DIRECTION_BLOCK + 1, 2**40)
    want = {k: _reference_noisy_matvec(obj, noise, x0, k) for k in indexes}
    for order in itertools.permutations(indexes):
        _directions.cache_clear()
        for k in order:
            assert noisy_matvec(obj, noise, x0, k).tobytes() == want[k].tobytes(), (order, k)


def test_cached_directions_are_read_only():
    block = _directions(3, 0, 8)
    assert block.shape == (DIRECTION_BLOCK, 8)
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    with pytest.raises(ValueError):
        block[1] *= 2.0


def test_short_draw_is_redrawn_from_its_own_stream(monkeypatch):
    # A row of zeros cannot be normalised; unit_vector draws again from the
    # same stream, and the block must too.
    real = perturb.substream_gaussians

    def zero_row(seed, first, count, n):
        g = real(seed, first, count, n)
        g[5] = 0.0
        return g

    monkeypatch.setattr(perturb, "substream_gaussians", zero_row)
    block = _directions.__wrapped__(2**64 - 1, 3, 7)
    stream = SplitMix64(substream_seed(2**64 - 1, 3 * DIRECTION_BLOCK + 5))
    stream.gaussian_vector(7)
    assert block[5].tobytes() == stream.unit_vector(7).tobytes()
    assert block[4].tobytes() == (
        SplitMix64(substream_seed(2**64 - 1, 3 * DIRECTION_BLOCK + 4)).unit_vector(7).tobytes()
    )


def test_direction_cache_stays_bounded():
    obj, _, x0 = _problem(6, 10.0)
    noise = NoiseModel(magnitude=1e-3, seed=2)
    for k in range(3_000):
        noisy_matvec(obj, noise, x0, k)
    info = _directions.cache_info()
    assert 0 < info.currsize <= info.maxsize


def test_sweep_draws_each_block_once(monkeypatch):
    obj, x_star, x0 = _problem(40, 1e4, seed=5)
    iters = 3 * DIRECTION_BLOCK
    drawn = []
    real = perturb.substream_gaussians

    def counting(seed, first, count, n):
        drawn.append((seed, first))
        return real(seed, first, count, n)

    monkeypatch.setattr(perturb, "substream_gaussians", counting)
    # A cache that holds one seed's blocks and no more: seed-major order
    # needs no more, and eta-major order would miss on every block.
    small = functools.lru_cache(maxsize=3)(_directions.__wrapped__)
    monkeypatch.setattr(perturb, "_directions", small)
    reports = sweep(obj, x_star, [1e-2, 1e-8, 1e-4], range(10), iters, x0=x0)
    assert [(r.eta, r.seed) for r in reports] == [
        (eta, seed) for eta in (1e-8, 1e-4, 1e-2) for seed in range(10)
    ]
    # every block a run used was drawn, and none twice
    used = {
        (r.seed, k * DIRECTION_BLOCK)
        for r in reports
        for k in range(math.ceil(r.iterations_run / DIRECTION_BLOCK))
    }
    assert sorted(drawn) == sorted(used)


def test_gap_gate_keeps_detection_unchanged(monkeypatch):
    obj, x_star, x0 = _problem(100, 1e4)
    gap_calls = []
    real_f_gap = QuadraticObjective.f_gap

    def counting_f_gap(self, x):
        gap_calls.append(1)
        return real_f_gap(self, x)

    monkeypatch.setattr(QuadraticObjective, "f_gap", counting_f_gap)

    def outcome(eta, seed):
        gap_calls.clear()
        rep = detect_inexactness(obj, x_star, NoiseModel(eta, seed), 600, x0=x0)
        key = (rep.iterations_run, rep.stop_reason, rep.first_violation, rep.psis.tobytes())
        return key, len(gap_calls)

    cases = [(eta, seed) for eta in (0.0, 1e-8, 1e-4, 1e-2) for seed in range(3)]
    gated = {case: outcome(*case) for case in cases}
    monkeypatch.setattr(solvers, "_gap_gate", lambda obj, stop_gap: math.inf)
    for case in cases:
        key, calls = outcome(*case)
        assert gated[case][0] == key, case
        if case[0] > 0.0:
            # a noisy run plateaus far above the threshold: the gate spares
            # the gap's matvec on almost every step
            assert gated[case][1] < calls / 2, case
