"""Property-based checks for the interface-level invariants."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcert.objective import QuadraticObjective
from gradcert.potential import certify, contraction_constant
from gradcert.rng import SplitMix64, substream_seed
from gradcert.serialize import fmt_float, render_json
from gradcert.solvers import Trace, momentum_coefficient

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(finite_floats)
def test_fmt_float_round_trips_exactly(x):
    assert float(fmt_float(x)) == x


@given(
    st.dictionaries(
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).filter(
            lambda s: '"' not in s and "\\" not in s
        ),
        st.one_of(
            finite_floats,
            st.integers(min_value=-(2**53), max_value=2**53),
            st.booleans(),
            st.none(),
            st.lists(finite_floats, max_size=6),
        ),
        max_size=6,
    )
)
def test_render_json_round_trips_through_loads(doc):
    assert json.loads(render_json(doc)) == doc


# nan, +-inf and subnormals come from st.floats(); the listed values pin
# -0.0, the longest .17g cell (24 characters) and the far ends of float64.
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
)


@given(
    st.sampled_from([np.float64, np.float32]),
    st.none() | st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=20),
    st.data(),
)
def test_render_json_array_equals_its_list(dtype, rows, n, data):
    shape = (n,) if rows is None else (rows, n)
    size = n if rows is None else rows * n
    values = data.draw(st.lists(json_floats, min_size=size, max_size=size))
    with np.errstate(over="ignore"):
        a = np.array(values, dtype=float).astype(dtype).reshape(shape)
    assert render_json(a) == render_json(a.tolist())
    doc = {"k": 1, "inner": {"a": a, "s": "x"}, "b": a}
    listed = {"k": 1, "inner": {"a": a.tolist(), "s": "x"}, "b": a.tolist()}
    assert render_json(doc) == render_json(listed)


@given(seeds)
def test_splitmix_streams_are_deterministic(seed):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    assert [a.next_uint64() for _ in range(8)] == [b.next_uint64() for _ in range(8)]


@given(seeds, st.integers(min_value=0, max_value=300))
def test_gaussian_vector_equals_scalar_gaussians(seed, n):
    a = SplitMix64(seed)
    b = SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = a.gaussian_vector(n)
    assert v.tobytes() == np.array([b.gaussian() for _ in range(n)], dtype=float).tobytes()
    assert a.next_uint64() == b.next_uint64()


@given(seeds, st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_substreams_never_collide_within_a_seed(seed, i, j):
    # the derivation xors distinct multiples of the odd gamma constant into
    # the seed, then bijects; equal outputs force equal indexes
    if i != j:
        assert substream_seed(seed, i) != substream_seed(seed, j)
    else:
        assert substream_seed(seed, i) == substream_seed(seed, j)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1.0 + 1e-9, max_value=1e12),
)
def test_contraction_constants_ordering(ell, kappa):
    lip = ell * kappa
    c_cg = contraction_constant("cg", ell, lip)
    c_ag = contraction_constant("ag", ell, lip)
    assert 1.0 < c_cg <= 2.0
    assert c_ag > c_cg
    # both certify strict decrease, and tighten toward 1 as kappa grows
    wider = contraction_constant("cg", ell, lip * 4.0)
    assert wider < c_cg


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e12),
)
def test_momentum_stays_in_unit_interval(ell, kappa):
    m = momentum_coefficient(ell, ell * kappa)
    assert 0.0 <= m < 1.0
    if kappa == 1.0:
        assert m == 0.0


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=4, max_size=4),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_potential_is_nonnegative(x, s, rho):
    # declaring L = (1 + rho)^2 l makes rho the accelerated weight sqrt(L/l) - 1
    diag = np.array([1.0, 2.0, 5.0, 9.0])
    obj = QuadraticObjective(np.diag(diag), np.zeros(4), 1.0, (1.0 + rho) ** 2)
    obj = obj.with_minimizer(np.zeros(4), 0.0)
    x = np.asarray(x)
    trace = Trace(method="ag", xs=np.vstack([x - np.asarray(s), x]))
    report = certify(trace, obj)
    assert report.rhos[1] == pytest.approx(rho, abs=1e-12)
    assert np.all(report.psis >= 0.0)
    assert np.all(report.w_norm_sqs >= 0.0)
    assert np.all(report.psis >= 2.0 / obj.ell * report.f_gaps * (1.0 - 1e-15))


@given(seeds, st.integers(min_value=1, max_value=64))
def test_unit_vectors_have_unit_norm(seed, dim):
    v = SplitMix64(seed).unit_vector(dim)
    assert math.isclose(float(np.linalg.norm(v)), 1.0, rel_tol=1e-12)
