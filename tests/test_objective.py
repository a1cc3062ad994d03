"""Objective construction, derivatives, and the smoothness checks."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from aids import check_descent_lemma, finite_difference_gradient, validate_sandwich
from gradcert.errors import MissingGroundTruthError, NotPositiveDefiniteError
from gradcert.objective import (
    LogisticRidgeObjective,
    QuadraticObjective,
    _sigmoid,
    newton_reference_minimizer,
)
from gradcert.perturb import NoiseModel
from gradcert.potential import GAP_BLOCK_ROWS, certify
from gradcert.problems import make_logistic_problem
from gradcert.rng import SplitMix64
from gradcert.solvers import Trace


def _random_quadratic(dim=6, seed=2):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lams = np.linspace(1.0, 9.0, dim)
    a = (q * lams) @ q.T
    b = rng.standard_normal(dim)
    return QuadraticObjective(a, b, 1.0, 9.0)


def _random_logistic(dim=5, m=40, seed=3):
    rng = np.random.default_rng(seed)
    return LogisticRidgeObjective(rng.standard_normal((m, dim)) / np.sqrt(dim), 0.5)


def test_quadratic_value_and_grad():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    obj = QuadraticObjective(a, np.array([2.0, 0.0]), 2.0, 4.0)
    x = np.array([1.0, 1.0])
    assert obj.value(x) == pytest.approx(0.5 * (2 + 4) - 2.0)
    assert np.allclose(obj.grad(x), np.array([0.0, 4.0]))


def test_quadratic_rejects_asymmetric_matrix():
    a = np.array([[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValueError):
        QuadraticObjective(a, np.zeros(2), 0.5, 2.0)


def test_quadratic_rejects_indefinite_matrix():
    a = np.diag([1.0, -2.0])
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticObjective(a, np.zeros(2), 1.0, 2.0)


# Each scalar argument with the values of [True, np.True_, 2.5, "3", nan,
# inf, 0, -1] that its rule refuses: a bound admits 2.5, a magnitude 2.5
# and 0, a seed 0. SpectrumSpec, make_logistic_problem's sizes and the step
# counts of run and detect_inexactness have their own tables.
_BOUND_REFUSALS = [True, np.True_, "3", math.nan, math.inf, 0, -1]
_SCALAR_REFUSALS = {
    # entry: (argument name, call, refused values)
    "quadratic ell": (
        "ell", lambda v: QuadraticObjective(np.eye(2), np.zeros(2), v, 4.0), _BOUND_REFUSALS
    ),
    "quadratic lip": (
        "lip", lambda v: QuadraticObjective(np.eye(2), np.zeros(2), 1.0, v), _BOUND_REFUSALS
    ),
    "logistic ridge": (
        "ridge", lambda v: LogisticRidgeObjective(np.ones((3, 2)), v), _BOUND_REFUSALS
    ),
    "factory ridge": ("ridge", lambda v: make_logistic_problem(2, 3, v), _BOUND_REFUSALS),
    "noise magnitude": ("magnitude", NoiseModel, [True, np.True_, "3", math.nan, math.inf, -1]),
    "noise seed": (
        "seed", lambda v: NoiseModel(0.1, v), [True, np.True_, 2.5, "3", math.nan, math.inf, -1]
    ),
}


@pytest.mark.parametrize(
    "entry, value",
    [(entry, value) for entry, (_, _, values) in _SCALAR_REFUSALS.items() for value in values]
    # an int beyond float64's range used to raise OverflowError from float()
    + [
        pytest.param(entry, 10**400, id=f"{entry}-10**400")
        for entry in _SCALAR_REFUSALS
        if entry != "noise seed"
    ],
)
def test_scalar_arguments_refuse_malformed_values(entry, value):
    # a bool or a string is refused, not read as 1 or left to a TypeError
    name, build, _ = _SCALAR_REFUSALS[entry]
    with pytest.raises(ValueError, match=name):
        build(value)


def test_bounds_take_numpy_scalars():
    # a float32 bound used to warn: comparing it with float64's largest
    # value overflowed in the cast
    obj = QuadraticObjective(np.eye(2), np.zeros(2), np.float32(0.5), np.float64(2.0))
    assert (obj.ell, obj.lip) == (0.5, 2.0)
    assert NoiseModel(np.float16(0.25)).magnitude == 0.25


def test_quadratic_symmetrizes_roundoff():
    a = np.array([[1.0, 0.3 + 1e-15], [0.3, 1.0]])
    obj = QuadraticObjective(a, np.zeros(2), 0.5, 2.0)
    assert np.array_equal(obj.matrix, obj.matrix.T)


def test_f_gap_matches_definition():
    obj = _random_quadratic()
    x_star = np.linalg.solve(obj.matrix, obj.rhs)
    obj = obj.with_minimizer(x_star)
    f_star = obj.value(x_star)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(obj.dim)
        assert obj.f_gap(x) == pytest.approx(obj.value(x) - f_star, rel=1e-12)
        assert obj.f_gap(x) >= 0.0


def test_f_gap_is_the_measured_gap_of_one_row():
    # one gap formula per objective: f_gap is the audit's one-row case, and
    # the audit's gradient norms are those of grad
    for obj in (_random_quadratic(), _random_logistic()):
        obj = obj.with_minimizer(newton_reference_minimizer(obj))
        xs = np.random.default_rng(1).standard_normal((GAP_BLOCK_ROWS, obj.dim))
        d = xs - obj.minimizer
        gaps, grad_norms = obj._measure_rows(xs, d)
        assert np.allclose(gaps, [obj.f_gap(x) for x in xs], rtol=1e-12)
        norms = np.linalg.norm([obj.grad(x) for x in xs], axis=1)
        assert np.allclose(grad_norms, norms, rtol=1e-12, atol=0.0)
        for x, dx in zip(xs[-7:], d[-7:]):
            assert obj.f_gap(x) == obj._measure_rows(x[None, :], dx[None, :])[0][0]


def test_sigmoid_matches_scipy_expit():
    # scipy's formula with exp's argument capped at 709: equal to a few
    # ulps wherever expit is well above the subnormals, and both tiny below
    t = np.concatenate(
        [np.linspace(-800.0, 800.0, 200_001), 40.0 * np.random.default_rng(6).standard_normal(100_000)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _sigmoid(t)
    ref = expit(t)
    big = ref > 1e-300
    assert np.all(np.abs(ours[big] - ref[big]) <= 5e-16 * ref[big])
    assert np.all(np.abs(ours[~big] - ref[~big]) <= 2e-308)
    assert np.count_nonzero(~big) > 1000 and np.all((ours >= 0.0) & (ours <= 1.0))


def test_sigmoid_edge_values_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([np.nan, np.inf, -np.inf, 0.0, 709.0, -709.0, -710.0, 1e308, -1e308]))
    assert np.isnan(out[0])
    assert out[1] == 1.0 and 0.0 <= out[2] <= 2e-308
    assert out[3] == 0.5 and out[4] == 1.0
    assert out[5] == pytest.approx(np.exp(-709.0), rel=1e-15)
    assert out[6] <= 2e-308 and out[7] == 1.0 and out[8] <= 2e-308


def test_f_gap_is_stable_near_the_minimizer():
    # the difference-of-values form would lose everything to cancellation
    obj = _random_quadratic()
    x_star = np.linalg.solve(obj.matrix, obj.rhs)
    obj = obj.with_minimizer(x_star)
    x = x_star + 1e-9
    gap = obj.f_gap(x)
    d = x - x_star
    assert gap == pytest.approx(0.5 * d @ (obj.matrix @ d), rel=1e-10)


@pytest.mark.parametrize("make", [_random_quadratic, _random_logistic])
def test_ground_truth_is_the_minimizer(make):
    # the gap comes from the minimizer alone: attaching it needs nothing
    # else, a non-finite one is refused, and no truth means no gap
    obj = make()
    x_star = newton_reference_minimizer(obj)
    assert obj.with_minimizer(x_star).f_gap(x_star) == 0.0
    assert not hasattr(obj, "min_value")
    with pytest.raises(ValueError, match="non-finite"):
        obj.with_minimizer(np.full(obj.dim, np.nan))
    with pytest.raises(MissingGroundTruthError):
        obj.f_gap(np.zeros(obj.dim))
    with pytest.raises(MissingGroundTruthError):
        certify(Trace("ag", np.zeros((2, obj.dim))), obj)


def test_gradients_match_finite_differences():
    # 20 points per family at 1e-5 relative
    for obj in (_random_quadratic(), _random_logistic()):
        stream = SplitMix64(17)
        for _ in range(20):
            x = stream.gaussian_vector(obj.dim)
            g = obj.grad(x)
            fd = finite_difference_gradient(obj.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_sandwich_on_random_pairs():
    # both families, 100 pairs each
    for obj in (_random_quadratic(), _random_logistic()):
        stream = SplitMix64(23)
        for _ in range(100):
            x = stream.gaussian_vector(obj.dim)
            y = stream.gaussian_vector(obj.dim)
            assert validate_sandwich(obj, x, y).passed


def test_descent_lemma_along_gradient_steps():
    for obj in (_random_quadratic(), _random_logistic()):
        stream = SplitMix64(29)
        for _ in range(25):
            y = stream.gaussian_vector(obj.dim)
            assert check_descent_lemma(obj, y).passed


def test_eval_and_grad_are_pure():
    obj = _random_logistic()
    x = np.ones(obj.dim)
    before = x.copy()
    obj.value(x)
    obj.grad(x)
    obj.hessian(x)
    assert np.array_equal(x, before)
    data_before = obj.data_matrix.copy()
    obj.grad(np.full(obj.dim, -3.0))
    assert np.array_equal(obj.data_matrix, data_before)


def test_logistic_constants():
    obj = _random_logistic()
    assert obj.ell == 0.5
    # L = ridge + ||A||^2/4 up to the advertised safety factor, never below
    sing_sq = np.linalg.svd(obj.data_matrix, compute_uv=False)[0] ** 2
    assert obj.lip == pytest.approx(0.5 + sing_sq / 4.0, rel=1e-6)
    rng = np.random.default_rng(4)
    for m, dim in ((1, 1), (1, 30), (7, 50), (40, 5), (300, 3), (60, 60)):  # tall and wide
        data = rng.standard_normal((m, dim))
        sigma_max = np.linalg.svd(data, compute_uv=False)[0]
        assert LogisticRidgeObjective(data, 1e-3).lip >= 1e-3 + sigma_max**2 / 4.0
    # Hessian eigenvalues live inside [ell, L] everywhere we look
    for x in (np.zeros(obj.dim), np.ones(obj.dim)):
        eigs = np.linalg.eigvalsh(obj.hessian(x))
        assert eigs[0] >= obj.ell - 1e-12
        assert eigs[-1] <= obj.lip * (1 + 1e-9)


def test_newton_reference_minimizer_is_sharp():
    obj = _random_logistic()
    x0 = np.ones(obj.dim)
    x_star = newton_reference_minimizer(obj, x0)
    g_star = np.linalg.norm(obj.grad(x_star))
    g0 = np.linalg.norm(obj.grad(x0))
    assert g_star <= 1e-12 * g0


def test_dimension_mismatch_raises():
    obj = _random_quadratic(dim=4)
    with pytest.raises(ValueError):
        obj.value(np.zeros(5))
    with pytest.raises(ValueError):
        obj.grad(np.zeros(3))
