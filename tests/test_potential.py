"""Potential evaluation, certification, envelopes, and the identity battery."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracle
from aids import materialize_orthogonal
from conftest import assert_close
from gradcert import (
    QuadraticObjective,
    SpectrumSpec,
    certify,
    generate_with_start,
    hs_identity_battery,
    potential,
    run,
)
from gradcert.errors import MissingGroundTruthError
from gradcert.perturb import NoiseModel, _noisy
from gradcert.potential import (
    CERT_TOL_CAP,
    CHAIN,
    TELESCOPING,
    chain_steps,
    contraction_constant,
    default_cert_tolerance,
)
from gradcert.problems import make_logistic_problem, make_quadratic_problem
from gradcert.solvers import Trace
from gradcert.traces import read_trace_iterates, write_trace_csv


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
    s1 = trace.displacements(slice(0, len(trace)))[1]
    assert_close(trace.xs[1] + report.rhos[1] * s1 - dim2.obj.minimizer, w)
    assert report.w_norm_sqs[1] == pytest.approx(2 / 5, abs=1e-12)
    assert_close(report.psis[:2], [6.0, 29 / 35])


def test_rho_is_the_norm_minimizer(dim2):
    # perturbing rho away from the closed form can only grow ||w||
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    report = certify(trace, dim2.obj)
    d1 = trace.xs[1] - dim2.obj.minimizer
    s1 = trace.displacements(slice(0, len(trace)))[1]

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
    assert report.theorem1_ok and report.daniel_ok
    ag_trace = run(dim2.obj, "ag", dim2.x0, 2, -math.inf)
    ag_report = certify(ag_trace, dim2.obj)
    psi1 = 52 / 9 - 8 * math.sqrt(3) / 3
    psi2 = 88 / 27 - 16 * math.sqrt(3) / 9
    assert_close(ag_report.psis, [6.0, psi1, psi2])
    assert ag_report.first_violation is None
    assert report.first_failures[TELESCOPING] is None
    assert ag_report.first_failures.get(TELESCOPING) is None


def test_default_tolerance_formula(tiny_problem):
    # bit for bit: the rounding model's home keeps the product's order
    obj = tiny_problem.obj
    kappa = obj.lip / obj.ell
    assert default_cert_tolerance(obj) == 1e-9 * (1.0 + kappa * 2.0**-52 * obj.dim)


def test_default_tolerance_is_capped():
    # kappa eps dim > 1 would lift the slack past any meaningful size
    for ell in (1e-6, 1e-300, 1e-320):
        obj = QuadraticObjective(np.diag([1.0, 100.0]), np.ones(2), ell, 100.0)
        assert default_cert_tolerance(obj) == min(
            1e-9 * (1.0 + 100.0 / ell * 2.0**-52 * 2), CERT_TOL_CAP
        )
    assert default_cert_tolerance(obj) == CERT_TOL_CAP


def test_chain_fails_a_step_with_a_non_finite_psi():
    psis = np.array([4.0, np.inf, np.inf, 1.0, np.nan, 0.5])
    with np.errstate(invalid="ignore"):  # inf / inf, as under certify()
        _, passes = chain_steps(psis, 1.5, 1e-9)
    assert passes.tolist() == [False, False, False, False, False]
    _, passes = chain_steps(np.array([4.0, 2.0, 1.0]), 1.5, 1e-9)
    assert passes.tolist() == [True, True]


@pytest.mark.parametrize("ell, first_violation", [(1.0, 99), (1e-300, 99), (1e-320, 0)])
def test_tiny_declared_ell_does_not_certify_a_forgery(ell, first_violation):
    # an AG run with iterate 100 moved by 10, audited under a smaller
    # declared ell, which is still a true lower bound: at 1e-300 the
    # uncapped tolerance was about 1e278, and at 1e-320 every psi is inf
    obj, x_star, x0 = generate_with_start(
        SpectrumSpec(dim=5, ell=1.0, lip=100.0, layout="log_uniform", seed=1)
    )
    trace = run(obj, "ag", x0, 150, -math.inf)
    forged = trace.xs.copy()
    forged[100] += 10.0
    declared = QuadraticObjective(obj.matrix, obj.rhs, ell, obj.lip).with_minimizer(x_star)
    report = certify(dataclasses.replace(trace, xs=forged), declared)
    assert report.tol_cert <= CERT_TOL_CAP
    assert report.first_violation == first_violation
    assert report.failed_check == "certificate chain"


@pytest.mark.parametrize("ell", [1e-300, 1e-320])
def test_tiny_declared_ell_does_not_empty_the_battery(ell):
    # uncapped, the roundoff floor kappa eps dim F_0 put state 0 at the
    # floor: the battery examined 1 state, and noise failed only the
    # rho_alignment row; capped, it examines what it does at ell 1
    obj, x_star, x0 = generate_with_start(
        SpectrumSpec(dim=5, ell=1.0, lip=100.0, layout="log_uniform", seed=1)
    )
    declared = QuadraticObjective(obj.matrix, obj.rhs, ell, obj.lip).with_minimizer(x_star)

    def battery(o, eta):
        trace = run(_noisy(o, NoiseModel(eta)), "cg_classic", x0, o.dim, -math.inf)
        return hs_identity_battery(trace, o)

    clean = battery(declared, 0.0)
    assert clean.ok and clean.n == battery(obj, 0.0).n == 6
    noisy = battery(declared, 1e-2)
    assert not noisy.ok and noisy.first_failures["gap_drop"] is not None


def test_certify_flags_a_corrupted_trace(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    clean = certify(trace, obj)
    assert clean.first_violation is None and clean.first_failures[TELESCOPING] is None
    # a 10% bump on a late iterate lifts its potential far above the
    # already-contracted neighbors, so the chain cannot absorb it
    bumped = trace.xs.copy()
    k = len(trace) - 2
    bumped[k] += 0.1 * np.linalg.norm(bumped[k]) * np.ones(obj.dim) / math.sqrt(obj.dim)
    # a consistent 10% scaling of one x_k: the recurrence cannot have
    # produced it, which breaks the gap telescoping against its neighbors
    scaled = trace.xs.copy()
    scaled[len(trace) // 2] *= 1.1
    # nan step sizes zero rho, which the chain cannot see; the telescoping
    # counts each step it cannot check as a violation
    nan_alphas = np.full_like(trace.alphas, np.nan)
    # a finite iterate whose gap overflows to inf (along the eigenvector of
    # l, so no product is nan): its two steps used to telescope as
    # inf <= TELESCOPE_TOL * inf
    overflowing = trace.xs.copy()
    overflowing[len(trace) // 2] = obj.minimizer + 1e160 * np.linalg.eigh(obj.matrix)[1][:, 0]
    # (forged trace, whether the gap telescoping must fire)
    forgeries = {
        "bumped_iterate": (dataclasses.replace(trace, xs=bumped), False),
        "scaled_iterate": (dataclasses.replace(trace, xs=scaled), True),
        "nan_alphas": (dataclasses.replace(trace, alphas=nan_alphas), True),
        "overflowing_iterate": (dataclasses.replace(trace, xs=overflowing), True),
    }
    # a single infinite scalar zeroes its rho just as nan does, and would
    # otherwise pass as inf <= TELESCOPE_TOL * inf
    for scalars in ("alphas", "prev_res_sqs"):
        for sign in (1.0, -1.0):
            for k in (1, 3, 8):
                forged = getattr(trace, scalars).copy()
                forged[k] = sign * np.inf
                forgeries[f"{scalars}[{k}]={sign * np.inf}"] = (
                    dataclasses.replace(trace, **{scalars: forged}),
                    True,
                )
    for name, (forged, telescopes) in forgeries.items():
        poisoned = certify(forged, obj)
        assert poisoned.first_violation is not None, name
        if telescopes:
            telescoping_at = poisoned.first_failures[TELESCOPING]
            assert telescoping_at is not None, name
            assert poisoned.first_violation <= telescoping_at, name


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
    obj, _, x0 = generate_with_start(spec)
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


@pytest.mark.parametrize(
    ("name", "row", "lip", "seed"),
    [("RQ_SLACK", "step_rayleigh", 1e7, 11), ("WEIGHTED_BOUND_SLACK", "weighted_bound", 1e6, 8)],
    ids=["RQ_SLACK", "WEIGHTED_BOUND_SLACK"],
)
def test_battery_slack_covers_a_clean_rounding_miss(monkeypatch, name, row, lip, seed):
    # CG for dim steps, as `gradcert identities` runs it, on a clean
    # two-cluster problem whose row misses its exact bound by rounding alone
    # (1/alpha_2 4.1e-10 below l, relative; ||w_1||^2 5.9e-11 above F_1 / l):
    # the row holds at today's slack and alarms at a tenth of it and at 0.
    # Only that row is pinned: dist_split alarms at state 1 on both problems.
    spec = SpectrumSpec(dim=10, ell=1.0, lip=lip, layout="two_cluster", seed=seed)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, "cg_classic", x0, obj.dim, -math.inf)
    assert hs_identity_battery(trace, obj).first_failures[row] is None
    for slack in (getattr(potential, name) / 10, 0.0):
        monkeypatch.setattr(potential, name, slack)
        assert hs_identity_battery(trace, obj).first_failures[row] is not None, slack


IDENTITY_CHECKS = {
    "gap_drop",
    "dist_drop",
    "dist_split",
    "potential_drop",
    "weighted_bound",
    "orth",
    "step_rayleigh",
    "rho_alignment",
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


def test_battery_on_read_back_trace_names_the_missing_residuals(tiny_problem, tmp_path):
    # the iterates file stores no recurred residuals, which the battery needs
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    path = tmp_path / "cg.csv"
    write_trace_csv(path, trace, obj, certify(trace, obj))
    with pytest.raises(ValueError, match="recurred residuals"):
        hs_identity_battery(read_trace_iterates(path), obj)


def test_rho_alignment_orthogonality(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    report = hs_identity_battery(trace, obj)
    assert report.first_failures["rho_alignment"] is None
    assert report.max_violations["rho_alignment"] <= 1e-10


@pytest.mark.parametrize("k", [3, 10, 20])
def test_rho_alignment_flags_a_scaled_step_size(k):
    # rho_k is built from alpha_k; a 0.1% error there turns w_k off s_k
    spec = SpectrumSpec(dim=30, ell=1.0, lip=1e3, layout="log_uniform", seed=0)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, "cg_classic", x0, obj.dim, -math.inf)
    assert hs_identity_battery(trace, obj).first_failures["rho_alignment"] is None
    trace.alphas[k] *= 1.001
    report = hs_identity_battery(trace, obj)
    assert not report.ok
    assert report.first_failures["rho_alignment"] == k
    assert report.max_violations["rho_alignment"] > 1e-6


def test_potential_is_basis_invariant():
    # evaluating the SAME trace in a rotated basis must not move psi;
    # re-running the solver there would diverge in trailing bits instead
    import dataclasses

    spec = SpectrumSpec(dim=12, ell=1.0, lip=200.0, layout="log_uniform", seed=13)
    obj, x_star, x0 = generate_with_start(spec)
    q = materialize_orthogonal(spec)
    a_rot = 0.5 * (q.T @ obj.matrix @ q + (q.T @ obj.matrix @ q).T)
    rot = QuadraticObjective(a_rot, q.T @ obj.rhs, obj.ell, obj.lip)
    x_star_rot = q.T @ x_star
    rot = rot.with_minimizer(x_star_rot)
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
        assert report.first_violation is None
        assert report.theorem1_ok
        # and psi dominates the gap pointwise: (ell/2) psi >= f_gap
        assert np.all(0.5 * obj.ell * report.psis >= report.f_gaps * (1 - 1e-12))


def test_all_ok_is_every_check(tiny_problem):
    # the grid workloads' verdict: the chain (with CG's telescoping), the
    # Theorem-1 envelope and, on CG, the Daniel envelope
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    for method in ("cg_classic", "ag"):
        trace = run(obj, method, x0, 200, 1e-10 * obj.f_gap(x0))
        report = certify(trace, obj)
        assert report.all_ok, method
        assert (report.daniel_ok is None) == (method == "ag")
        assert not dataclasses.replace(report, theorem1_ok=False).all_ok
        chain = report.checks[CHAIN].copy()
        chain[1] = False
        failing = {**report.checks, "certificate chain": chain}
        assert not dataclasses.replace(report, checks=failing).all_ok
        if method == "cg_classic":
            assert not dataclasses.replace(report, daniel_ok=False).all_ok
        # a real violated step: an iterate moved off the run
        xs = trace.xs.copy()
        xs[len(trace) // 2] += 1.0
        moved = certify(dataclasses.replace(trace, xs=xs), obj)
        assert moved.first_violation is not None and not moved.all_ok, method


def _whole_array_terms(trace, obj, family):
    """certify()'s per-row arrays, formed over the whole trace at once.

    Only the gaps and gradient norms come block by block, from the one
    measurement _measure_rows on blocks of potential.GAP_BLOCK_ROWS rows;
    d, s (np.diff) and w span the trace. Returns the arrays by report
    name, d, s, w and the measured gaps before the clamp.
    """
    xs, block = trace.xs, potential.GAP_BLOCK_ROWS
    d = xs - obj.minimizer
    measured = [obj._measure_rows(xs[lo : lo + block], d[lo : lo + block]) for lo in range(0, len(xs), block)]
    raw = np.concatenate([gaps for gaps, _ in measured])
    negative = int(np.count_nonzero(raw < 0.0))
    f_gaps = np.maximum(raw, 0.0) if negative else raw
    with np.errstate(all="ignore"):
        if family == "ag":
            rhos = np.full(len(xs), math.sqrt(obj.lip / obj.ell) - 1.0)
        else:
            quotient = 2.0 * f_gaps / (trace.alphas * trace.prev_res_sqs)
            rhos = np.where(np.isfinite(quotient) & (f_gaps > 0.0), quotient, 0.0)
        rhos[0] = 0.0
        s = np.diff(xs, axis=0, prepend=xs[:1])
        w = d + rhos[:, None] * s
        w_norm_sqs = np.einsum("ij,ij->i", w, w)
        psis = w_norm_sqs + (2.0 / obj.ell) * f_gaps
        arrays = {
            "psis": psis,
            "f_gaps": f_gaps,
            "grad_norms": np.concatenate([norms for _, norms in measured]),
            "w_norm_sqs": w_norm_sqs,
            "dist_sqs": np.einsum("ij,ij->i", d, d),
            "rhos": rhos,
            "ratios": psis[:-1] / psis[1:],
        }
    return arrays, d, s, w, raw


def _assert_report_is_the_whole_array_one(report, trace, obj, family):
    """Bit for bit, signs of zeros included; returns the gaps before the clamp."""
    arrays, _, _, _, raw = _whole_array_terms(trace, obj, family)
    negative = int(np.count_nonzero(raw < 0.0))
    for name, expected in arrays.items():
        assert np.array_equal(getattr(report, name), expected, equal_nan=True), name
        assert np.array_equal(np.signbit(getattr(report, name)), np.signbit(expected)), name
    assert report.flags == ([f"clamped {negative} negative gap value(s) to 0"] if negative else [])
    return raw


def test_certify_an_ag_trace_across_block_boundaries():
    # two full blocks and one row past them: a block's first s reads the
    # last row of the block before it, and at kappa 1e6 the run still moves
    obj, _, x0 = generate_with_start(SpectrumSpec(dim=8, ell=1.0, lip=1e6, layout="log_uniform", seed=11))
    block = potential.GAP_BLOCK_ROWS
    trace = run(obj, "ag", x0, 2 * block, -math.inf)
    assert len(trace) == 2 * block + 1
    assert np.all(trace.xs[block :: block] != trace.xs[block - 1 :: block])
    _assert_report_is_the_whole_array_one(certify(trace, obj), trace, obj, "ag")


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_certify_a_cg_trace_across_small_blocks(monkeypatch, method):
    monkeypatch.setattr(potential, "GAP_BLOCK_ROWS", 5)
    obj, _, x0 = generate_with_start(SpectrumSpec(dim=40, ell=1.0, lip=1e4, layout="log_uniform", seed=3))
    trace = run(obj, method, x0, 200, -math.inf)
    assert len(trace) > 4 * 5
    report = certify(trace, obj)
    _assert_report_is_the_whole_array_one(report, trace, obj, "cg")
    assert report.first_violation is None
    # the battery's vectors are the same blocks, concatenated
    _, d, s, w, _ = _whole_array_terms(trace, obj, "cg")
    with np.errstate(all="ignore"):
        t = potential._terms(trace, obj, "cg", vectors=True)
    for got, expected in ((t.d, d), (t.ss, s), (t.w, w)):
        assert np.array_equal(got, expected)
    assert potential._terms(trace, obj, "cg").w is None


def test_negative_gaps_are_clamped_and_flagged(monkeypatch):
    # far past convergence the logistic gap reads below 0 on most iterates
    # (its first-order terms cancel in floating point); certify clamps
    # them so no psi turns negative, and says how many it clamped, in
    # every block
    monkeypatch.setattr(potential, "GAP_BLOCK_ROWS", 1000)
    problem = make_logistic_problem(5, 20, 0.1, seed=0)
    obj = problem.objective
    trace = run(obj, "ag", problem.x0, 5000, -math.inf)
    report = certify(trace, obj)
    negative = np.flatnonzero(_assert_report_is_the_whole_array_one(report, trace, obj, "ag") < 0.0)
    assert negative.size > 1000
    assert len(set(negative // 1000)) >= 2
    assert np.all(report.f_gaps >= 0.0) and np.all(report.psis >= 0.0)


def test_certify_needs_a_fixed_number_of_blocks_beyond_the_trace():
    # the per-row outputs and a few GAP_BLOCK_ROWS x dim blocks, however
    # long the trace: here less than the trace itself
    obj, _, _ = generate_with_start(SpectrumSpec(dim=200, ell=1.0, lip=1e2, layout="log_uniform", seed=3))
    xs = obj.minimizer + np.random.default_rng(3).standard_normal((4 * potential.GAP_BLOCK_ROWS, 200))
    trace = Trace("ag", xs)
    tracemalloc.start()
    try:
        report = certify(trace, obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report) == len(xs)
    assert peak < xs.nbytes, (peak, xs.nbytes)


def test_degenerate_spectrum_certified_at_common_constant():
    a = np.diag([2.0, 2.0])
    obj = QuadraticObjective(a, np.array([2.0, -2.0]), 2.0, 2.0)
    x_star = np.array([1.0, -1.0])
    obj = obj.with_minimizer(x_star)
    trace = run(obj, "ag", np.zeros(2), 5, -math.inf)
    report = certify(trace, obj)
    assert report.c_value == 2.0
    assert report.daniel_ok is None
    assert report.first_violation is None


def test_certify_without_ground_truth_raises(tiny_problem):
    obj = tiny_problem.obj
    bare = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, obj.lip)
    trace = run(obj, "cg_classic", tiny_problem.x0, 10, -math.inf)
    with pytest.raises(MissingGroundTruthError):
        certify(trace, bare)
    with pytest.raises(MissingGroundTruthError):
        hs_identity_battery(trace, bare)


def test_the_check_table_names_the_first_failure(tiny_problem):
    # first_failures, first_violation and failed_check are all read off
    # certify()'s one table; at a shared step the chain, listed
    # first, is the one named
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    report = certify(run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0)), obj)
    assert list(report.checks) == ["certificate chain", "gap telescoping"]
    assert report.first_failures == {"certificate chain": None, "gap telescoping": None}
    assert report.failed_check is None and report.first_violation is None

    def failing_at(k):
        passes = np.ones(len(report) - 1, dtype=bool)
        if k is not None:
            passes[k] = False
        return passes

    for chain_at, telescoping_at, step, name in [
        (3, None, 3, "certificate chain"),
        (None, 2, 2, "gap telescoping"),
        (4, 2, 2, "gap telescoping"),
        (2, 4, 2, "certificate chain"),
        (2, 2, 2, "certificate chain"),
    ]:
        checks = {
            "certificate chain": failing_at(chain_at),
            "gap telescoping": failing_at(telescoping_at),
        }
        forged = dataclasses.replace(report, checks=checks)
        assert (forged.first_violation, forged.failed_check) == (step, name)
        assert forged.first_failures == {CHAIN: chain_at, TELESCOPING: telescoping_at}
        assert not forged.all_ok

    ag = certify(run(obj, "ag", x0, 30, -math.inf), obj)
    assert list(ag.checks) == ["certificate chain"]
    assert ag.first_failures == {CHAIN: None} and ag.failed_check is None


def test_battery_fails_overflowing_residuals_without_warning():
    # at x0 ~ 1e150 the gaps stay finite but their squares overflow: the
    # rows built on F_k^2 read nan, and each fails at its first step, in
    # agreement with ok and without a RuntimeWarning
    spec = make_quadratic_problem(SpectrumSpec(5, 1.0, 100.0, "log_uniform", 1))
    obj = spec.objective
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(obj, "cg_classic", spec.x0 * 1e150, obj.dim, -math.inf)
        battery = hs_identity_battery(trace, obj)
    failed = {name: k for name, k in battery.first_failures.items() if k is not None}
    assert failed == {"dist_drop": 0, "dist_split": 1, "potential_drop": 1}
    assert not battery.ok
    for name, worst in battery.max_violations.items():
        assert math.isnan(worst) == (name in failed), name
