"""Potential evaluation, certification, envelopes, and the identity battery."""

import math

import numpy as np
import pytest

import oracle
from aids import materialize_orthogonal
from conftest import assert_close
from gradcert import (
    MissingGroundTruthError,
    QuadraticObjective,
    SpectrumSpec,
    certify,
    contraction_constant,
    default_cert_tolerance,
    generate_with_start,
    hs_identity_battery,
    rho_optimality_check,
    run,
)


def test_contraction_constants():
    assert contraction_constant("cg", 1.0, 3.0) == pytest.approx(1 + math.sqrt(1 / 3), abs=1e-15)
    assert contraction_constant("ag", 1.0, 3.0) == pytest.approx(1 + 1 / (math.sqrt(3) - 1), abs=1e-15)
    # AG constant is the stronger one whenever kappa > 1
    for kappa in (1.5, 10.0, 1e4, 1e12):
        assert contraction_constant("ag", 1.0, kappa) > contraction_constant("cg", 1.0, kappa)
    # at lip == ell AG is gradient descent, certified at the common constant
    assert contraction_constant("ag", 2.0, 2.0) == contraction_constant("cg", 2.0, 2.0) == 2.0
    with pytest.raises(ValueError):
        contraction_constant("newton", 1.0, 4.0)
    # full method names accepted too
    assert contraction_constant("cg_unified", 1.0, 4.0) == contraction_constant("cg", 1.0, 4.0)


def test_rho_values(dim2):
    ag = certify(run(dim2.obj, "ag", dim2.x0, 2, -math.inf), dim2.obj)
    assert ag.rhos[0] == 0.0  # rho_0 is pinned at zero
    assert_close(ag.rhos[1:], [math.sqrt(3) - 1] * 2, tol=1e-15)
    exact = oracle.cg_exact([[1, 0], [0, 3]], [0, 0], [1, 1], 3, 1)
    cg = certify(run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf), dim2.obj)
    assert cg.rhos[0] == 0.0
    assert float(exact[1]["rho"]) == pytest.approx(3 / 25, abs=1e-14)
    assert cg.rhos[1] == pytest.approx(3 / 25, abs=1e-14)
    # from an eigenvector CG terminates exactly in one step; there any
    # weight works and the certificate takes 0
    done = certify(run(dim2.obj, "cg_classic", np.array([1.0, 0.0]), 5, -math.inf), dim2.obj)
    assert len(done) == 2 and done.f_gaps[-1] == 0.0
    assert done.rhos[-1] == 0.0


def test_potential_point_matches_oracle(dim2):
    exact = oracle.cg_exact([[1, 0], [0, 3]], [0, 0], [1, 1], 3, 1)
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    report = certify(trace, dim2.obj)
    w = [float(v) for v in exact[1]["w"]]  # (3/5, -1/5)
    assert_close(trace.xs[1] + report.rhos[1] * trace.ss[1] - dim2.obj.minimizer, w)
    assert report.w_norm_sqs[1] == pytest.approx(2 / 5, abs=1e-12)
    assert_close(report.psis[:2], [6.0, 29 / 35])


def test_rho_is_the_norm_minimizer(dim2):
    # perturbing rho away from the closed form can only grow ||w||
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    report = certify(trace, dim2.obj)
    d1 = trace.xs[1] - dim2.obj.minimizer
    s1 = trace.ss[1]

    def w_norm_sq(rho):
        w = d1 + rho * s1
        return float(w @ w)

    base = w_norm_sq(report.rhos[1])
    assert base == pytest.approx(report.w_norm_sqs[1], abs=1e-15)
    for bump in (-0.05, -0.01, 0.01, 0.05):
        assert w_norm_sq(report.rhos[1] + bump) > base


def test_certify_frozen_values(dim2):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    report = certify(trace, dim2.obj)
    assert_close(report.psis, [6.0, 29 / 35, 0.0])
    assert report.first_violation is None
    assert report.chain_ok and report.theorem1_ok and report.daniel_ok
    ag_trace = run(dim2.obj, "ag", dim2.x0, 2, -math.inf)
    ag_report = certify(ag_trace, dim2.obj)
    psi1 = 52 / 9 - 8 * math.sqrt(3) / 3
    psi2 = 88 / 27 - 16 * math.sqrt(3) / 9
    assert_close(ag_report.psis, [6.0, psi1, psi2])
    assert ag_report.first_violation is None
    assert ag_report.common_first_violation is None


def test_default_tolerance_formula(tiny_problem):
    obj = tiny_problem.obj
    kappa = obj.lip / obj.ell
    assert default_cert_tolerance(obj) == pytest.approx(
        1e-9 * (1.0 + kappa * 2.0**-52 * obj.dim), rel=1e-12
    )


def test_certify_flags_a_corrupted_trace(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    assert certify(trace, obj).first_violation is None
    # a 10% bump on a late iterate lifts its potential far above the
    # already-contracted neighbors, so the chain cannot absorb it
    k = len(trace) - 2
    trace.xs[k] += 0.1 * np.linalg.norm(trace.xs[k]) * np.ones(obj.dim) / math.sqrt(obj.dim)
    poisoned = certify(trace, obj)
    assert poisoned.first_violation is not None


def test_battery_flags_a_corrupted_trace(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    assert hs_identity_battery(trace, obj).ok
    trace.xs[len(trace) // 2] *= 1.001
    report = hs_identity_battery(trace, obj)
    assert not report.ok
    assert report.first_failures["gap_drop"] is not None


def _kappa_1e6_cg_trace():
    spec = SpectrumSpec(dim=50, ell=1.0, lip=1e6, layout="log_uniform", seed=0)
    obj, truth, x0 = generate_with_start(spec)
    return obj, run(obj, "cg_classic", x0, obj.dim, -math.inf)


def test_battery_stops_at_the_roundoff_floor():
    obj, trace = _kappa_1e6_cg_trace()
    report = hs_identity_battery(trace, obj)
    assert report.ok
    d = trace.xs - obj.minimizer
    gaps = 0.5 * np.einsum("ij,ij->i", d, d @ obj.matrix)
    floor = (obj.lip / obj.ell) * 2.0**-52 * obj.dim * gaps[0]
    first = int(np.flatnonzero(gaps <= floor)[0])
    # the first state at the floor is the last one examined
    assert report.n == first + 1 < len(trace)


def test_battery_flags_a_nudge_above_the_floor_at_high_kappa():
    obj, trace = _kappa_1e6_cg_trace()
    n = hs_identity_battery(trace, obj).n
    trace.xs[n // 2] *= 1.001
    report = hs_identity_battery(trace, obj)
    assert not report.ok
    assert report.first_failures["gap_drop"] is not None


IDENTITY_CHECKS = {
    "gap_drop", "dist_drop", "dist_split", "potential_drop", "weighted_bound", "orth", "step_rayleigh"
}


@pytest.mark.parametrize("iterates", [1, 2, 3])
def test_battery_on_short_traces(tiny_problem, iterates):
    obj = tiny_problem.obj
    if iterates == 1:
        # from x* the gap is exactly 0, so the run stops before any step
        trace = run(obj, "cg_classic", obj.minimizer, 1, 0.0)
    else:
        trace = run(obj, "cg_classic", tiny_problem.x0, iterates - 1, -math.inf)
    assert len(trace) == iterates
    report = hs_identity_battery(trace, obj)
    assert set(report.max_violations) == set(report.first_failures) == IDENTITY_CHECKS
    assert report.ok and report.n == iterates
    assert all(first is None for first in report.first_failures.values())
    # a held bound reads +0.0; -0.0 would be written to JSON as -0
    assert math.copysign(1.0, report.max_violations["weighted_bound"]) == 1.0


def test_battery_on_ag_trace_rejected(dim2):
    trace = run(dim2.obj, "ag", dim2.x0, 2, -math.inf)
    with pytest.raises(ValueError):
        hs_identity_battery(trace, dim2.obj)


def test_rho_alignment_orthogonality(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    misalignment, ok = rho_optimality_check(trace, obj)
    assert ok
    assert misalignment <= 1e-10


def test_potential_is_basis_invariant():
    # evaluating the SAME trace in a rotated basis must not move psi;
    # re-running the solver there would diverge in trailing bits instead
    import dataclasses

    spec = SpectrumSpec(dim=12, ell=1.0, lip=200.0, layout="log_uniform", seed=13)
    obj, truth, x0 = generate_with_start(spec)
    q = materialize_orthogonal(spec)
    a_rot = 0.5 * (q.T @ obj.matrix @ q + (q.T @ obj.matrix @ q).T)
    rot = QuadraticObjective(a_rot, q.T @ obj.rhs, obj.ell, obj.lip)
    x_star_rot = q.T @ truth.x_star
    rot = rot.with_minimizer(x_star_rot, rot.value(x_star_rot))
    trace = run(obj, "cg_classic", x0, 40, 1e-9 * obj.f_gap(x0))
    rotated = dataclasses.replace(trace, xs=trace.xs @ q)
    r1 = certify(trace, obj)
    r2 = certify(rotated, rot)
    assert np.allclose(r2.psis, r1.psis, rtol=1e-9, atol=1e-9 * r1.psis[0])
    assert np.allclose(r2.rhos, r1.rhos, rtol=1e-9, atol=1e-12)


def test_chain_implies_envelope(tiny_problem):
    # the telescoped chain is the stronger statement
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    for method in ("cg_classic", "ag"):
        report = certify(run(obj, method, x0, 200, 1e-10 * obj.f_gap(x0)), obj)
        assert report.chain_ok
        assert report.theorem1_ok
        # and psi dominates the gap pointwise: (ell/2) psi >= f_gap
        assert np.all(0.5 * obj.ell * report.psis >= report.f_gaps * (1 - 1e-12))


def test_degenerate_spectrum_certified_at_common_constant():
    a = np.diag([2.0, 2.0])
    obj = QuadraticObjective(a, np.array([2.0, -2.0]), 2.0, 2.0)
    x_star = np.array([1.0, -1.0])
    obj = obj.with_minimizer(x_star, obj.value(x_star))
    trace = run(obj, "ag", np.zeros(2), 5, -math.inf)
    report = certify(trace, obj)
    assert report.degenerate
    assert report.c_value == report.c_common == pytest.approx(2.0)
    assert report.daniel_bounds is None
    assert report.first_violation is None


def test_certify_without_ground_truth_raises(tiny_problem):
    obj = tiny_problem.obj
    bare = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, obj.lip)
    trace = run(obj, "cg_classic", tiny_problem.x0, 10, -math.inf)
    with pytest.raises(MissingGroundTruthError):
        certify(trace, bare)
