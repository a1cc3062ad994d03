"""Solver runs: oracle iterates, the unified variants, and run-level invariants."""

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracle
from aids import conjugacy_drift
from conftest import assert_close
from gradcert import QuadraticObjective, SpectrumSpec, generate_with_start, run, solvers
from gradcert.errors import MissingGroundTruthError
from gradcert.perturb import NoiseModel, _max_drift, _noisy
from gradcert.potential import certify
from gradcert.problems import make_logistic_problem
from gradcert.solvers import METHOD_FAMILY, METHODS, Trace, _gap_gate, momentum_coefficient
from gradcert.traces import read_trace_csv, read_trace_iterates, write_trace_csv


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


def test_cg_directions_replay_the_oracle(dim2, tmp_path):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    exact = oracle_cg()
    # same alignment as the oracle: p_k is the direction of step k, none at k = 0
    assert trace.ps.shape == trace.xs.shape
    assert np.all(np.isnan(trace.ps[0]))
    for k in range(1, len(exact)):
        assert_close(trace.ps[k], [float(v) for v in exact[k]["p"]])
    # directions are derived from CG's own residuals; nothing else has them
    assert run(dim2.obj, "ag", dim2.x0, 2, -math.inf).ps is None
    path = tmp_path / "dim2.csv"
    write_trace_csv(path, trace, dim2.obj, certify(trace, dim2.obj))
    assert read_trace_iterates(path).ps is None


def test_ag_iterates_match_oracle(dim2):
    trace = run(dim2.obj, "ag", dim2.x0, 2, -math.inf)
    exact = oracle_ag()
    for k, rec in enumerate(exact):
        assert_close(trace.xs[k], [float(v) for v in rec["x"]])
    # transient y_2 = x_1 + m s_1 = (sqrt(3)/3, sqrt(3)-2)
    s1 = trace.displacements(slice(0, len(trace)))[1]
    y2 = trace.xs[1] + momentum_coefficient(1.0, 3.0) * s1
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
    obj, x_star, x0 = generate_with_start(spec)
    classic = run(obj, "cg_classic", x0, 35, -math.inf)
    unified = run(obj, "cg_unified", x0, 35, -math.inf)
    n = min(len(classic), len(unified))
    dist0 = np.linalg.norm(x0 - x_star)
    for k in range(n):
        assert np.linalg.norm(classic.xs[k] - unified.xs[k]) <= 1e-8 * dist0


def test_unified_ag_matches_direct_form():
    spec = SpectrumSpec(dim=30, ell=1.0, lip=1e3, layout="uniform", seed=2)
    obj, x_star, x0 = generate_with_start(spec)
    direct = run(obj, "ag", x0, 100, -math.inf)
    unified = run(obj, "ag_unified", x0, 100, -math.inf)
    scale = max(np.max(np.linalg.norm(direct.xs, axis=1)), np.linalg.norm(x0 - x_star))
    diff = np.max(np.linalg.norm(direct.xs - unified.xs, axis=1))
    assert diff <= 1e-12 * scale


@pytest.mark.parametrize("eta", [0.0, 1e-4])
@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_replayed_directions_are_the_ones_multiplied(method, eta):
    spec = SpectrumSpec(dim=20, ell=1.0, lip=1e4, layout="log_uniform", seed=3)
    obj, _, x0 = generate_with_start(spec)
    noisy = _noisy(obj, NoiseModel(eta, seed=5))
    used = []
    product = noisy.matvec
    noisy.matvec = lambda p: used.append(p.copy()) or product(p)
    trace = run(noisy, method, x0, 40, -math.inf)
    assert len(trace) == len(used) + 1 > 20
    assert trace.ps[1:].tobytes() == np.vstack(used).tobytes()


def test_cg_monotonicity_and_drift(tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 20, -math.inf)
    gaps = certify(trace, obj).f_gaps
    assert np.all(np.diff(gaps) <= 1e-14 * gaps[0])
    dists = np.linalg.norm(trace.xs - obj.minimizer, axis=1)
    assert np.all(np.diff(dists) <= 1e-14 * dists[0])
    # the recurred residual stays on the true one at every step
    true_rs = obj.rhs - trace.xs @ obj.matrix
    assert np.max(np.linalg.norm(trace.rs - true_rs, axis=1)) <= 1e-10 * trace.r0_norm
    # conjugacy is meaningful up to the practical stop; directions taken
    # past the residual floor are roundoff-dominated
    stopped = run(obj, "cg_classic", x0, 20, 1e-10 * gaps[0])
    assert conjugacy_drift(stopped, obj) <= 1e-8


def test_cg_drift_checked_on_long_runs():
    spec = SpectrumSpec(dim=120, ell=1.0, lip=1e4, layout="log_uniform", seed=4)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, "cg_classic", x0, 600, 1e-10 * obj.f_gap(x0))
    assert len(trace) > 10, "expected at least one drift audit"
    assert _max_drift(trace, obj) <= 1e-10 * trace.r0_norm
    assert conjugacy_drift(trace, obj) <= 1e-8


def _orthogonality_loss(trace, dim):
    """max |Q'Q - I| over the normalized first min(n, dim) stored residuals."""
    r = trace.rs[: min(len(trace), dim)]
    q = r / np.linalg.norm(r, axis=1)[:, None]
    return float(np.max(np.abs(q @ q.T - np.eye(len(q)))))


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
@pytest.mark.parametrize("dim,kappa", [(10, 1e3), (50, 1e3), (200, 1e6)])
def test_cg_residuals_stay_orthogonal(method, dim, kappa):
    # exact CG residuals are mutually orthogonal; plain double-precision
    # recurrences lose it (|cos| up to 0.8 between residuals of these runs)
    spec = SpectrumSpec(dim=dim, ell=1.0, lip=kappa, layout="log_uniform", seed=0)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, method, x0, 4_000, 1e-10 * obj.f_gap(x0))
    assert len(trace) - 1 <= dim
    assert _orthogonality_loss(trace, dim) <= 1e-12


@pytest.fixture(scope="module")
def cg_grid():
    """81 problems: dims 10/50/200 x kappa 1e2/1e4/1e6 x three layouts x seeds 0-2."""
    layouts = ("log_uniform", "uniform", "two_cluster")
    cells = itertools.product((10, 50, 200), (1e2, 1e4, 1e6), layouts, range(3))
    return [generate_with_start(SpectrumSpec(d, 1.0, k, lay, seed=s)) for d, k, lay, s in cells]


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_cg_residuals_stay_orthogonal_over_the_grid(cg_grid, method):
    # The second Gram-Schmidt pass runs only where the first cancels more
    # than half the squared norm, which no clean run of this grid does; one
    # pass must still hold the residuals orthogonal to a small multiple of
    # dim u (measured: at most dim u / 2), and CG must reach 1e-8 of its
    # initial gap by step dim, the exact-arithmetic termination.
    for obj, _, x0 in cg_grid:
        dim = obj.dim
        trace = run(obj, method, x0, 4 * dim, -math.inf)
        assert _orthogonality_loss(trace, dim) <= 2 * dim * 2.0**-53
        stopped = run(obj, method, x0, 4 * dim, 1e-8 * obj.f_gap(x0))
        assert stopped.stop_reason == "gap" and len(stopped) - 1 <= dim


def _noisy_cg(obj, method, x0, max_iters, noise):
    """CG to max_iters steps, each product through noisy_matvec with its own call index."""
    return run(_noisy(obj, noise), method, x0, max_iters, -math.inf)


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_noisy_cg_residuals_stay_orthogonal(method):
    # criterion 10's instance at eta 1e-2, where about two steps in five
    # cancel enough in the first pass to take the second
    spec = SpectrumSpec(dim=100, ell=1.0, lip=1e4, layout="log_uniform", seed=0)
    obj, _, x0 = generate_with_start(spec)
    for seed in range(10):
        trace = _noisy_cg(obj, method, x0, 400, NoiseModel(1e-2, seed=seed))
        assert _orthogonality_loss(trace, 100) <= 2 * 100 * 2.0**-53


@pytest.mark.parametrize("eta", [None, 1e-4, 1e-2])
@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_stored_residual_norms_are_the_stored_residuals(method, eta):
    # prev_res_sqs[k+1] is ||r_k||^2 of the stored r_k, bit for bit, on clean
    # (eta None) and noisy runs alike
    spec = SpectrumSpec(dim=50, ell=1.0, lip=1e4, layout="log_uniform", seed=1)
    obj, _, x0 = generate_with_start(spec)
    if eta is None:
        trace = run(obj, method, x0, 200, -math.inf)
    else:
        trace = _noisy_cg(obj, method, x0, 200, NoiseModel(eta, seed=2))
    assert len(trace) > 20
    assert trace.prev_res_sqs[1:].tolist() == [float(r @ r) for r in trace.rs[:-1]]


def test_degenerate_ag_is_gradient_descent():
    a = np.diag([2.0, 2.0, 2.0])
    obj = QuadraticObjective(a, np.array([2.0, 4.0, 6.0]), 2.0, 2.0)
    x_star = np.array([1.0, 2.0, 3.0])
    obj = obj.with_minimizer(x_star)
    x0 = np.zeros(3)
    trace = run(obj, "ag", x0, 5, -math.inf)
    # theta = nu = 0 makes every step x - grad/L, which lands exactly here
    assert_close(trace.xs[1], x_star)


def test_not_positive_definite_detected():
    a = np.diag([1.0, 1.0])
    obj = QuadraticObjective(a, np.zeros(2), 1.0, 1.0).with_minimizer(np.zeros(2))
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
    obj, _, x0 = generate_with_start(spec)
    bare = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, obj.lip)
    for method in METHODS:
        with pytest.raises(MissingGroundTruthError):
            run(bare, method, x0, 100, 1e-8)


@pytest.mark.parametrize(
    "max_iters",
    [0, -1, 5.0, 2.5, True, np.float64(3.0), "5", None, np.True_, "3", math.nan, math.inf],
)
def test_run_refuses_a_malformed_step_count(tiny_problem, max_iters):
    # 5.0 and 2.5 used to raise TypeError from range, and True ran one step
    for method in METHODS:
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            run(tiny_problem.obj, method, tiny_problem.x0, max_iters, -math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_refuses_a_non_finite_start(tiny_problem, bad):
    # a nan x0 used to end as a "diverged" run whose certificate showed no
    # violation
    x0 = np.r_[bad, tiny_problem.x0[1:]]
    for method in METHODS:
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            run(tiny_problem.obj, method, x0, 50, -math.inf)


def test_run_takes_numpy_integer_step_counts(tiny_problem):
    trace = run(tiny_problem.obj, "cg_classic", tiny_problem.x0, np.int64(3), -math.inf)
    assert len(trace) == 4


def test_run_refuses_a_nan_stop_gap(tiny_problem):
    # a nan stop_gap used to disable the stop silently: CG ran to its floor.
    # True ran as 1.0, a string or None raised TypeError from math.isnan,
    # and 10**400 OverflowError.
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    for method in METHODS:
        for stop_gap in (math.nan, True, np.True_, "1e-3", None, 10**400):
            with pytest.raises(ValueError, match="stop_gap"):
                run(obj, method, x0, 50, stop_gap)
        # the infinities stay valid: -inf never stops on the gap, inf at x0
        assert run(obj, method, x0, 3, -math.inf).stop_reason == "max_iters"
        assert len(run(obj, method, x0, 3, math.inf)) == 1


@pytest.mark.parametrize("scale", [0.5, 0.25])
@pytest.mark.parametrize("method", ["ag", "ag_unified"])
def test_ag_with_underestimated_lip_stops_diverged(method, scale):
    # steps of 1/L past 2/lambda_max grow the error each step; the run ends
    # at its first non-finite ||x - x*||^2, keeps the finite prefix, warns
    # nothing
    spec = SpectrumSpec(dim=50, ell=1.0, lip=1e4, layout="log_uniform", seed=0)
    obj, x_star, x0 = generate_with_start(spec)
    low = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, scale * obj.lip)
    low = low.with_minimizer(x_star)
    trace = run(low, method, x0, 1000, 1e-12 * low.f_gap(x0))
    assert trace.stop_reason == "diverged"
    assert 1 < len(trace) <= 1000
    assert np.all(np.isfinite(trace.xs))
    # the prefix is the run itself, one step short of the overflow
    shorter = run(low, method, x0, len(trace) - 1, 1e-12 * low.f_gap(x0))
    assert shorter.stop_reason == "max_iters"
    assert np.array_equal(shorter.xs, trace.xs)
    report = certify(trace, low)
    assert report.first_violation is not None and not report.theorem1_ok


def _assert_stops_at_first_gap(method, obj, x0, stop_gap, max_iters):
    # Every run stops on the exact gap, and the gate on (l/2)||x - x*||^2
    # only skips its evaluations: a "gap" stop is the first iterate whose
    # exact gap is at or below stop_gap, and any other stop saw none.
    trace = run(obj, method, x0, max_iters, stop_gap)
    hits = [k for k, x in enumerate(trace.xs) if obj.f_gap(x) <= stop_gap]
    if trace.stop_reason == "gap":
        assert hits == [len(trace) - 1]
    else:
        assert hits == []
        if trace.stop_reason == "max_iters":
            assert len(trace) == max_iters + 1
        else:
            assert METHOD_FAMILY[method] == "cg" and trace.stop_reason == "converged"
    return trace


@pytest.mark.parametrize("layout", ["log_uniform", "uniform", "two_cluster"])
@pytest.mark.parametrize("kappa", [10.0, 1e3, 1e6])
@pytest.mark.parametrize("dim", [10, 50, 200])
def test_ag_gate_never_moves_the_stop(dim, kappa, layout):
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, kappa, layout, seed=1))
    for method in ("ag", "cg_classic", "cg_unified"):
        trace = _assert_stops_at_first_gap(method, obj, x0, 1e-10 * obj.f_gap(x0), 40_000)
        assert trace.stop_reason == "gap"


def test_ag_gate_never_moves_the_stop_off_quadratics():
    problem = make_logistic_problem(8, 40, 0.05, seed=3)
    obj, x0 = problem.objective, problem.x0
    trace = _assert_stops_at_first_gap("ag", obj, x0, 1e-12 * obj.f_gap(x0), 20_000)
    assert trace.stop_reason == "gap"
    # the logistic gap reads <= 0 before x reaches x*, so this run stops
    # on stop_gap 0 although ||x - x*|| > 0
    zero = _assert_stops_at_first_gap("ag", obj, x0, 0.0, 20_000)
    assert zero.stop_reason == "gap" and np.any(zero.xs[-1] != obj.minimizer)


def test_ag_gate_passes_every_point_at_its_own_gap():
    # Along the eigenvectors of l the gap is (l/2)||d||^2 up to rounding,
    # where the computed gap often reads below the computed bound; the
    # gate's rounding slack must still let every such point through.
    obj, x_star, _ = generate_with_start(SpectrumSpec(50, 1.0, 1e3, "two_cluster", seed=4))
    low = np.linalg.eigh(obj.matrix)[1][:, :25]
    coef = np.random.default_rng(0).standard_normal((400, 25))
    below = 0
    for scale, c in zip(np.logspace(-8, 2, len(coef)), coef):
        x = x_star + scale * (low @ c)
        d = x - x_star
        gap = obj.f_gap(x)
        below += gap < 0.5 * obj.ell * d.dot(d)
        assert 0.5 * obj.ell * d.dot(d) <= _gap_gate(obj, gap)
    assert below > 0


@pytest.mark.parametrize("dim, kappa", [(2, 1.0), (10, 1e2), (50, 1e4), (200, 1e6), (10, 1e16)])
def test_gap_gate_formula(dim, kappa):
    # bit for bit against the bound written out, with u = 2**-53 and
    # gamma_dim = dim u / (1 - dim u); at err >= 1 (the last row) it is open
    ell, lip = 0.5, 0.5 * kappa
    obj = QuadraticObjective(np.diag(np.geomspace(ell, lip, dim)), np.ones(dim), ell, lip)
    u = 2.0**-53
    gamma = dim * u / (1.0 - dim * u)
    err = gamma * (2.0 + gamma) * math.sqrt(dim) * lip / ell
    for stop_gap in (1e-10, 0.5, 3.0, -2.0):
        want = stop_gap * ((1.0 + gamma) / (1.0 - err) + 4.0 * u) if err < 1.0 else math.inf
        assert _gap_gate(obj, stop_gap) == want


def test_ag_gate_edge_stop_gaps():
    obj, x_star, x0 = generate_with_start(SpectrumSpec(20, 1.0, 100.0, "log_uniform", seed=2))
    a = QuadraticObjective(np.diag([2.0, 2.0, 2.0]), [2.0, 4.0, 6.0], 2.0, 2.0)
    a = a.with_minimizer([1.0, 2.0, 3.0])
    for method in ("ag", "cg_classic", "cg_unified"):
        # no iterate reaches gap 0: AG takes every step, CG ends on its
        # residual floor after dim steps
        for stop_gap in (0.0, -math.inf):
            trace = _assert_stops_at_first_gap(method, obj, x0, stop_gap, 300)
            if method == "ag":
                assert trace.stop_reason == "max_iters"
            else:
                assert trace.stop_reason == "converged" and len(trace) == 21
        # x0 already within the stop: no step is taken
        within = _assert_stops_at_first_gap(method, obj, x0, obj.f_gap(x0), 300)
        assert len(within) == 1 and within.stop_reason == "gap"
        at_min = _assert_stops_at_first_gap(method, obj, x_star, 0.0, 300)
        assert len(at_min) == 1 and at_min.stop_reason == "gap"
        # on 2I both gradient descent and CG land on x* in one step, where
        # the gap is 0
        exact = _assert_stops_at_first_gap(method, a, np.zeros(3), 0.0, 5)
        assert len(exact) == 2 and exact.stop_reason == "gap"


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
@pytest.mark.parametrize("dim,kappa,seed,at_x0", [(10, 1e6, 3, False), (200, 1e6, 1, True)])
def test_cg_stops_on_the_exact_gap(method, dim, kappa, seed, at_x0):
    # CG's recurred estimate -d'r/2 of the gap read "reached" on these
    # runs where no iterate was, or a step after x0 already was
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, kappa, "log_uniform", seed=seed))
    stop_gap = obj.f_gap(x0) if at_x0 else 0.0
    trace = _assert_stops_at_first_gap(method, obj, x0, stop_gap, 300)
    assert trace.stop_reason == ("gap" if at_x0 else "converged")


@pytest.mark.parametrize("method", ["ag", "cg_classic", "cg_unified"])
@pytest.mark.parametrize(
    "dim,kappa,layout", [(10, 1e2, "log_uniform"), (50, 1e4, "two_cluster"), (200, 1e4, "log_uniform")]
)
def test_stop_agrees_with_the_audit_between_audited_gaps(method, dim, kappa, layout):
    # The stop evaluates one iterate's gap alone and certify() evaluates
    # the trace in blocks; their last bits can differ. A stop_gap strictly
    # between two consecutive audited gaps, their geometric mean, is clear
    # of that rounding: the run stops at the first iterate that certify()
    # puts at or below it.
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, kappa, layout, seed=0))
    full = run(obj, method, x0, 40_000, 1e-12 * obj.f_gap(x0))
    gaps = certify(full, obj).f_gaps
    lowest = np.minimum.accumulate(gaps)
    # iterates whose audited gap is a new low by more than rounding
    lows = np.flatnonzero((gaps[1:] > 0.0) & (gaps[1:] < lowest[:-1] * (1.0 - 1e-8))) + 1
    # (CG on two clusters takes only a few steps)
    assert len(lows) >= 2
    for k in lows[np.unique(np.linspace(0, len(lows) - 1, 6).astype(int))]:
        stop_gap = math.sqrt(lowest[k - 1] * gaps[k])
        trace = run(obj, method, x0, 40_000, stop_gap)
        audited = certify(trace, obj).f_gaps
        assert trace.stop_reason == "gap" and len(trace) == k + 1, (k, len(trace))
        assert np.all(audited[:-1] > stop_gap) and audited[-1] <= stop_gap
        assert trace.xs.tobytes() == full.xs[: k + 1].tobytes()


def _reference_run_ag(obj, method, x0, max_iters, stop_gap):
    # The AG loop before its workspaces: a new array per operation, a
    # Python list of iterates and one vstack. run must match it bit for bit.
    # lip == ell gives momentum 0: plain gradient descent with 1/L steps.
    momentum = momentum_coefficient(obj.ell, obj.lip)
    inv_lip = 1.0 / obj.lip
    half_ell = 0.5 * obj.ell
    gate = _gap_gate(obj, stop_gap)
    x_star = obj.minimizer

    def reached(x, dd):
        # The exact gap costs a matvec; it is paid only past the gate.
        return half_ell * dd <= gate and obj.f_gap(x) <= stop_gap

    x = x0.copy()
    s = None
    xs = [x]
    d = x - x_star
    done = reached(x, d.dot(d))
    stop_reason = "gap" if done else "max_iters"
    # A run whose declared L is below the true curvature overflows; its
    # first non-finite ||x - x*||^2 ends it, and no overflow warning escapes.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(0 if done else max_iters):
            y = x if s is None else x + momentum * s
            x_next = y - obj.grad(y) * inv_lip
            d = x_next - x_star
            dd = d.dot(d)
            if not math.isfinite(dd):
                stop_reason = "diverged"
                break
            s = x_next - x
            x = x_next
            xs.append(x)
            if reached(x, dd):
                stop_reason = "gap"
                break

    return Trace(method=method, xs=np.vstack(xs), stop_reason=stop_reason)


def _assert_matches_reference(obj, x0, max_iters, stop_gap):
    expected = _reference_run_ag(obj, "ag", x0, max_iters, stop_gap)
    for method in ("ag", "ag_unified"):
        trace = run(obj, method, x0, max_iters, stop_gap)
        assert trace.stop_reason == expected.stop_reason
        assert trace.xs.shape == expected.xs.shape
        assert trace.xs.tobytes() == expected.xs.tobytes()
        # an owned, exactly sized array, not a view of the run's buffer
        assert trace.xs.flags.c_contiguous and trace.xs.flags.owndata
    return expected


@pytest.mark.parametrize("layout", ["log_uniform", "uniform", "two_cluster"])
@pytest.mark.parametrize("kappa", [10.0, 1e3, 1e6])
@pytest.mark.parametrize("dim", [10, 50, 200])
def test_ag_iterates_match_reference_loop(dim, kappa, layout):
    obj, _, x0 = generate_with_start(SpectrumSpec(dim, 1.0, kappa, layout, seed=2))
    trace = _assert_matches_reference(obj, x0, 40_000, 1e-10 * obj.f_gap(x0))
    assert trace.stop_reason == "gap"


def test_ag_matches_reference_loop_off_gap_stops():
    problem = make_logistic_problem(6, 30, 0.1, seed=2)
    obj, x0 = problem.objective, problem.x0
    for stop_gap in (1e-12 * obj.f_gap(x0), 0.0):
        assert _assert_matches_reference(obj, x0, 20_000, stop_gap).stop_reason == "gap"
    assert _assert_matches_reference(obj, x0, 37, 0.0).stop_reason == "max_iters"
    # the underestimated-L run of test_ag_with_underestimated_lip_stops_diverged
    obj, x_star, x0 = generate_with_start(SpectrumSpec(50, 1.0, 1e4, "log_uniform", seed=0))
    low = QuadraticObjective(obj.matrix, obj.rhs, obj.ell, 0.5 * obj.lip).with_minimizer(x_star)
    diverged = _assert_matches_reference(low, x0, 1000, 1e-12 * low.f_gap(x0))
    assert diverged.stop_reason == "diverged"


def test_ag_iterate_buffer_edges():
    # The iterate buffer starts at one row and doubles: every max_iters up
    # to 70 ends just before, at or just after one of its growths.
    obj, _, x0 = generate_with_start(SpectrumSpec(10, 1.0, 1e6, "log_uniform", seed=3))
    for max_iters in range(1, 71):
        trace = _assert_matches_reference(obj, x0, max_iters, -math.inf)
        assert trace.stop_reason == "max_iters" and len(trace) == max_iters + 1
    # x0 already within the stop: the trace is x0 alone, as its own array
    within = _assert_matches_reference(obj, x0, 10, obj.f_gap(x0))
    assert len(within) == 1 and within.stop_reason == "gap"
    assert not np.shares_memory(run(obj, "ag", x0, 10, obj.f_gap(x0)).xs, x0)
    # a later run on the same objective leaves an earlier trace alone
    first = run(obj, "ag", x0, 40, -math.inf)
    kept = first.xs.tobytes()
    run(obj, "ag", x0, 300, -math.inf)
    assert first.xs.tobytes() == kept


def test_ag_memory_follows_steps_taken():
    # max_iters caps the steps; it sizes nothing
    obj, _, x0 = generate_with_start(SpectrumSpec(50, 1.0, 1e3, "log_uniform", seed=0))
    tracemalloc.start()
    try:
        trace = run(obj, "ag", x0, 10**9, 1e-10 * obj.f_gap(x0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.stop_reason == "gap"
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("method", ["ag", "ag_unified"])
def test_ag_calls_grad_once_per_step(monkeypatch, method, kind):
    if kind == "quadratic":
        obj, _, x0 = generate_with_start(SpectrumSpec(30, 1.0, 1e3, "log_uniform", seed=0))
    else:
        problem = make_logistic_problem(6, 30, 0.1, seed=2)
        obj, x0 = problem.objective, problem.x0
    stop_gap = 1e-10 * obj.f_gap(x0)
    calls = []
    cls = type(obj)
    grad, f_gap = cls.grad, cls.f_gap
    monkeypatch.setattr(cls, "grad", lambda self, x: calls.append("grad") or grad(self, x))
    monkeypatch.setattr(cls, "f_gap", lambda self, x: calls.append("gap") or f_gap(self, x))
    for max_iters, reason in ((40, "max_iters"), (20_000, "gap")):
        calls.clear()
        trace = run(obj, method, x0, max_iters, stop_gap)
        assert trace.stop_reason == reason
        assert calls.count("grad") == len(trace) - 1
        # nothing after the stop's own check
        assert reason == "max_iters" or calls[-1] == "gap"
        if kind == "quadratic":
            # the gate skips the exact gap on most steps
            assert calls.count("gap") < len(trace) / 4


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_cg_evaluates_the_gap_rarely(monkeypatch, method):
    obj, _, x0 = generate_with_start(SpectrumSpec(30, 1.0, 1e3, "log_uniform", seed=0))
    stop_gap = 1e-10 * obj.f_gap(x0)
    calls = []
    cls = type(obj)
    f_gap, matvec = cls.f_gap, cls.matvec
    monkeypatch.setattr(cls, "f_gap", lambda self, x: calls.append("gap") or f_gap(self, x))
    monkeypatch.setattr(cls, "matvec", lambda self, v: calls.append("matvec") or matvec(self, v))

    runs = {}
    for max_iters, reason in ((10, "max_iters"), (4_000, "gap")):
        calls.clear()
        trace = run(obj, method, x0, max_iters, stop_gap)
        assert trace.stop_reason == reason
        assert calls.count("matvec") == len(trace) - 1
        # nothing after the stop's own check
        assert reason == "max_iters" or calls[-1] == "gap"
        # the gate skips the exact gap on most steps
        assert calls.count("gap") < len(trace) / 4
        runs[max_iters] = trace
    # the gate only skips evaluations: an open gate stops at the same iterate
    monkeypatch.setattr(solvers, "_gap_gate", lambda obj, stop_gap: math.inf)
    for max_iters, gated in runs.items():
        trace = run(obj, method, x0, max_iters, stop_gap)
        assert trace.stop_reason == gated.stop_reason
        assert trace.xs.tobytes() == gated.xs.tobytes()
        assert trace.rs.tobytes() == gated.rs.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_one_product_per_step_and_none_in_the_audit(method):
    # every method takes its products through obj.matvec, AG by way of
    # grad, one per step whatever the stop; the audit multiplies by the
    # matrix itself and takes none
    obj, _, x0 = generate_with_start(SpectrumSpec(30, 1.0, 1e3, "log_uniform", seed=0))
    stop_gap = 1e-10 * obj.f_gap(x0)
    products = []
    counting = copy.copy(obj)
    counting.matvec = lambda v: products.append(1) or obj.matvec(v)
    capped = "max_iters" if METHOD_FAMILY[method] == "ag" else "converged"
    for max_iters, gap, reason in ((500, -math.inf, capped), (20_000, stop_gap, "gap")):
        products.clear()
        trace = run(counting, method, x0, max_iters, gap)
        assert trace.stop_reason == reason
        assert len(products) == len(trace) - 1 > 20
        certify(trace, counting)
        assert len(products) == len(trace) - 1
        # an eta-0 noisy copy takes the exact product, bit for bit
        for seed in range(3):
            noisy = run(_noisy(obj, NoiseModel(0.0, seed)), method, x0, max_iters, gap)
            assert noisy.xs.tobytes() == trace.xs.tobytes()


def test_first_iteration_state_shape(dim2):
    trace = run(dim2.obj, "cg_classic", dim2.x0, 5, -math.inf)
    # row 0 has no step and no predecessor residual yet
    ss = trace.displacements(slice(0, len(trace)))
    assert np.isnan(trace.prev_res_sqs[0])
    assert not np.any(ss[0])
    # ||r_0||^2 with r_0 = -A x_0 = (-1, -3)
    assert trace.prev_res_sqs[1] == pytest.approx(10.0)
    assert_close(ss[1], trace.xs[1] - trace.xs[0])
    assert np.any(ss[1])


@pytest.mark.parametrize("method", METHODS)
def test_displacements_follow_from_iterates(method):
    spec = SpectrumSpec(dim=10, ell=1.0, lip=100.0, layout="log_uniform", seed=4)
    obj, _, x0 = generate_with_start(spec)
    trace = run(obj, method, x0, 50, -math.inf)
    ss = trace.displacements(slice(0, len(trace)))
    assert ss.shape == trace.xs.shape
    assert not np.any(ss[0])
    assert np.array_equal(ss[1:], np.diff(trace.xs, axis=0))
