"""Solver runs: oracle iterates, the unified variants, and run-level invariants."""

import math

import numpy as np
import pytest

import oracle
from conftest import assert_close
from gradcert import (
    METHODS,
    MissingGroundTruthError,
    QuadraticObjective,
    SpectrumSpec,
    conjugacy_drift,
    generate_with_start,
    momentum_coefficient,
    run,
)
from gradcert.potential import certify
from gradcert.traces import read_trace_csv, write_trace_csv


def oracle_cg(steps=3):
    return oracle.cg_exact([[1, 0], [0, 3]], [0, 0], [1, 1], steps, 1)


def oracle_ag(steps=2):
    return oracle.ag_exact([[1, 0], [0, 3]], [0, 0], [1, 1], steps, 1, 3)


def test_cg_iterates_match_oracle(dim2):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    exact = oracle_cg()
    assert len(trace) == 3
    for k, rec in enumerate(exact):
        assert_close(trace.xs[k], [float(v) for v in rec["x"]])
        if k >= 1:
            assert trace.alphas[k] == pytest.approx(float(rec["alpha"]), abs=1e-12)
            assert trace.betas[k] == pytest.approx(float(rec["beta"]), abs=1e-12)


def test_ag_iterates_match_oracle(dim2):
    trace = run(dim2.obj, "ag", dim2.x0, 2, -math.inf)
    exact = oracle_ag()
    for k, rec in enumerate(exact):
        assert_close(trace.xs[k], [float(v) for v in rec["x"]])
    # transient y_2 = x_1 + m s_1 = (sqrt(3)/3, sqrt(3)-2)
    y2 = trace.xs[1] + momentum_coefficient(1.0, 3.0) * trace.ss[1]
    assert_close(y2, [math.sqrt(3) / 3, math.sqrt(3) - 2.0])


def test_momentum_coefficient_value():
    m = momentum_coefficient(1.0, 3.0)
    assert m == pytest.approx((math.sqrt(3) - 1) / (math.sqrt(3) + 1), abs=1e-15)
    assert m == pytest.approx(2 - math.sqrt(3), abs=1e-15)
    assert momentum_coefficient(2.0, 2.0) == 0.0


def test_cg_schedule_values(dim2, tmp_path):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    path = tmp_path / "dim2.csv"
    write_trace_csv(path, trace, dim2.obj, certify(trace, dim2.obj))
    cols = read_trace_csv(path)
    exact = oracle_cg()
    # schedule leaving x_0: no momentum, pi_0 = alpha_1
    assert cols["theta"][0] == 0.0 and cols["nu"][0] == 0.0
    assert cols["pi"][0] == pytest.approx(float(exact[1]["alpha"]), abs=1e-15)
    # schedule leaving x_1: nu_1 = alpha_2 beta_2 / alpha_1, pi_1 = alpha_2
    nu_expected = float(exact[2]["alpha"] * exact[2]["beta"] / exact[1]["alpha"])
    assert cols["nu"][1] == pytest.approx(nu_expected, abs=1e-15)
    assert cols["pi"][1] == pytest.approx(float(exact[2]["alpha"]), abs=1e-15)
    assert cols["theta"][1] == 0.0


def test_unified_cg_tracks_classic():
    spec = SpectrumSpec(dim=30, ell=1.0, lip=1e3, layout="log_uniform", seed=1)
    obj, truth, x0 = generate_with_start(spec)
    classic = run(obj, "cg_classic", x0, 35, -math.inf)
    unified = run(obj, "cg_unified", x0, 35, -math.inf)
    n = min(len(classic), len(unified))
    dist0 = np.linalg.norm(x0 - truth.x_star)
    for k in range(n):
        assert np.linalg.norm(classic.xs[k] - unified.xs[k]) <= 1e-8 * dist0


def test_unified_ag_matches_direct_form():
    spec = SpectrumSpec(dim=30, ell=1.0, lip=1e3, layout="uniform", seed=2)
    obj, truth, x0 = generate_with_start(spec)
    direct = run(obj, "ag", x0, 100, -math.inf)
    unified = run(obj, "ag_unified", x0, 100, -math.inf)
    scale = max(np.max(np.linalg.norm(direct.xs, axis=1)), np.linalg.norm(x0 - truth.x_star))
    diff = np.max(np.linalg.norm(direct.xs - unified.xs, axis=1))
    assert diff <= 1e-12 * scale


def test_cg_monotonicity_and_drift(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 20, -math.inf)
    gaps = obj.f_gap_many(trace.xs)
    assert np.all(np.diff(gaps) <= 1e-14 * gaps[0])
    dists = np.linalg.norm(trace.xs - obj.minimizer, axis=1)
    assert np.all(np.diff(dists) <= 1e-14 * dists[0])
    for _, drift in trace.drift_checks:
        assert drift <= 1e-10 * trace.r0_norm
    # conjugacy is meaningful up to the practical stop; directions taken
    # past the residual floor are roundoff-dominated
    stopped = run(obj, "cg_classic", x0, 20, 1e-10 * gaps[0])
    assert conjugacy_drift(stopped, obj) <= 1e-8


def test_cg_drift_checked_on_long_runs():
    spec = SpectrumSpec(dim=120, ell=1.0, lip=1e4, layout="log_uniform", seed=4)
    obj, truth, x0 = generate_with_start(spec)
    trace = run(obj, "cg_classic", x0, 600, 1e-10 * obj.f_gap(x0))
    assert trace.drift_checks, "expected at least one drift audit"
    assert max(d for _, d in trace.drift_checks) <= 1e-10 * trace.r0_norm
    assert conjugacy_drift(trace, obj) <= 1e-8


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
@pytest.mark.parametrize("dim,kappa", [(10, 1e3), (50, 1e3), (200, 1e6)])
def test_cg_residuals_stay_orthogonal(method, dim, kappa):
    # exact CG residuals are mutually orthogonal; plain double-precision
    # recurrences lose it (|cos| up to 0.8 between residuals of these runs)
    spec = SpectrumSpec(dim=dim, ell=1.0, lip=kappa, layout="log_uniform", seed=0)
    obj, truth, x0 = generate_with_start(spec)
    trace = run(obj, method, x0, 4_000, 1e-10 * obj.f_gap(x0))
    assert len(trace) - 1 <= dim
    r = trace.rs[: min(len(trace), dim)]
    u = r / np.linalg.norm(r, axis=1)[:, None]
    assert np.max(np.abs(u @ u.T - np.eye(len(u)))) <= 1e-12


def test_degenerate_ag_is_gradient_descent():
    a = np.diag([2.0, 2.0, 2.0])
    obj = QuadraticObjective(a, np.array([2.0, 4.0, 6.0]), 2.0, 2.0)
    x_star = np.array([1.0, 2.0, 3.0])
    obj = obj.with_minimizer(x_star, obj.value(x_star))
    x0 = np.zeros(3)
    trace = run(obj, "ag", x0, 5, -math.inf)
    # theta = nu = 0 makes every step x - grad/L, which lands exactly here
    assert_close(trace.xs[1], x_star)


def test_not_positive_definite_detected():
    a = np.diag([1.0, 1.0])
    obj = QuadraticObjective(a, np.zeros(2), 1.0, 1.0).with_minimizer(np.zeros(2), 0.0)
    # sabotage after construction: indefinite operator reached through matvec
    obj.matrix = np.diag([1.0, -1.0])
    trace = run(obj, "cg_classic", np.array([0.3, 0.9]), 5, -math.inf)
    assert trace.stop_reason == "not_positive_definite"
    assert len(trace) == 1


def test_stop_reasons(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    g0 = obj.f_gap(x0)
    assert run(obj, "cg_classic", x0, 3, -math.inf).stop_reason == "max_iters"
    assert run(obj, "cg_classic", x0, 50, 1e-6 * g0).stop_reason == "gap"
    assert run(obj, "cg_classic", x0, 50, -math.inf).stop_reason == "converged"
    assert run(obj, "ag", x0, 10_000, 1e-10 * g0).stop_reason == "gap"


def test_run_without_ground_truth_raises():
    # every run stops on its exact gap, so it needs the minimizer
    spec = SpectrumSpec(dim=12, ell=1.0, lip=100.0, layout="uniform", seed=8)
    obj, truth, x0 = generate_with_start(spec)
    bare = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, obj.lip)
    for method in METHODS:
        with pytest.raises(MissingGroundTruthError):
            run(bare, method, x0, 100, 1e-8)


@pytest.mark.parametrize("scale", [0.5, 0.25])
@pytest.mark.parametrize("method", ["ag", "ag_unified"])
def test_ag_with_underestimated_lip_stops_diverged(method, scale):
    # steps of 1/L past 2/lambda_max grow the error each step; the run ends
    # at its first non-finite gap, keeps the finite prefix, warns nothing
    spec = SpectrumSpec(dim=50, ell=1.0, lip=1e4, layout="log_uniform", seed=0)
    obj, truth, x0 = generate_with_start(spec)
    low = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, scale * obj.lip)
    low = low.with_minimizer(truth.x_star, truth.f_star)
    trace = run(low, method, x0, 1000, 1e-12 * low.f_gap(x0))
    assert trace.stop_reason == "diverged"
    assert 1 < len(trace) <= 1000
    assert np.all(np.isfinite(trace.xs)) and np.all(np.isfinite(trace.f_gaps))
    # the prefix is the run itself, one step short of the overflow
    shorter = run(low, method, x0, len(trace) - 1, 1e-12 * low.f_gap(x0))
    assert shorter.stop_reason == "max_iters"
    assert np.array_equal(shorter.xs, trace.xs) and np.array_equal(shorter.f_gaps, trace.f_gaps)
    report = certify(trace, low)
    assert report.first_violation is not None and not report.theorem1_ok


def test_first_iteration_state_shape(dim2):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    # row 0 has no step and no predecessor residual yet
    assert np.isnan(trace.prev_res_sqs[0])
    assert not np.any(trace.ss[0])
    # ||r_0||^2 with r_0 = -A x_0 = (-1, -3)
    assert trace.prev_res_sqs[1] == pytest.approx(10.0)
    assert_close(trace.ss[1], trace.xs[1] - trace.xs[0])
    assert np.any(trace.ss[1])


@pytest.mark.parametrize("method", METHODS)
def test_displacements_follow_from_iterates(method):
    spec = SpectrumSpec(dim=10, ell=1.0, lip=100.0, layout="log_uniform", seed=4)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, method, x0, 50, -math.inf)
    assert trace.ss.shape == trace.xs.shape
    assert not np.any(trace.ss[0])
    assert np.array_equal(trace.ss[1:], np.diff(trace.xs, axis=0))
