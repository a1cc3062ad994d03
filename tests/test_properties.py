"""Property-based checks for the interface-level invariants."""

import base64
import contextlib
import copy
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradcert import cli
from gradcert.errors import GradcertError
from gradcert.generate import SpectrumSpec
from gradcert.objective import QuadraticObjective
from gradcert.potential import certify, contraction_constant
from gradcert.problems import (
    encode_array,
    load_problem,
    make_logistic_problem,
    make_quadratic_problem,
)
from gradcert.rng import SplitMix64, substream_gaussians, substream_seed
from gradcert.serialize import fmt_float, render_json
from gradcert.solvers import Trace, momentum_coefficient
from gradcert.traces import iterates_path, read_trace_csv, read_trace_iterates

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(finite_floats)
def test_fmt_float_round_trips_exactly(x):
    assert float(fmt_float(x)) == x


@given(
    st.dictionaries(
        st.text(max_size=12),
        st.one_of(
            st.text(max_size=12),
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


@given(
    seeds,
    st.integers(min_value=0, max_value=2**20) | st.integers(min_value=2**63 - 8, max_value=2**63 + 8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=40),
)
def test_substream_gaussians_equal_per_stream_draws(seed, first, count, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = substream_gaussians(seed, first, count, n)
    assert rows.shape == (count, n) and rows.dtype == np.float64
    for i in range(count):
        want = SplitMix64(substream_seed(seed, first + i)).gaussian_vector(n)
        assert rows[i].tobytes() == want.tobytes(), i


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
    obj = obj.with_minimizer(np.zeros(4))
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


# -- problem-file fuzz: one mutation of a valid document ------------------

# Written as the bare literal 1e400, which json reads as inf.
HUGE = "__1e400__"
BAD_VALUES = [None, True, "x", math.nan, math.inf, HUGE]


@functools.cache
def valid_problem_docs():
    quad = make_quadratic_problem(SpectrumSpec(3, 1.0, 10.0, "log_uniform", 0))
    logistic = make_logistic_problem(3, 5, 0.5, seed=0)
    return tuple(json.loads(spec.to_json()) for spec in (quad, logistic))


def _write_doc(path, doc):
    path.write_text(json.dumps(doc).replace(f'"{HUGE}"', "1e400"))


def _run_cli(problem, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--problem", str(problem), "--method", "ag", "--out", str(out)])
    return code, err.getvalue()


ARRAY_FIELDS = {"matrix", "rhs", "data_matrix", "x0", "x_star"}
# nan, +-inf and a signalling nan (quiet bit clear), as float64 bit patterns
NON_FINITE_BITS = [0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001]
ARRAY_ACTIONS = ["alphabet", "padding", "odd_bytes", "partial_row", "empty", "text", "non_finite"]


def _broken_array(draw, text, dim):
    """A base64 array field's text, broken in one way the reader must refuse."""
    values = np.frombuffer(base64.b64decode(text), "<f8")
    # 23 bytes: their base64 ends in one "=" of padding
    short = base64.b64encode(values.tobytes()[:-1]).decode("ascii")
    action = draw(st.sampled_from(ARRAY_ACTIONS))
    if action == "alphabet":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from(" \n.!-_*\u00e9")) + text[i:]
    if action == "padding":
        i = draw(st.integers(0, len(text) - 1))
        return draw(st.sampled_from([
            text + "=",  # padding after a complete quantum
            text[:-1],  # an incomplete final quantum
            text[:i] + "=" + text[i:],  # padding inside the data
            short.rstrip("="),  # padding stripped
            short + "=",  # one pad too many
        ]))
    if action == "odd_bytes":
        cut = draw(st.integers(1, 7))
        raw = values.tobytes()
        return base64.b64encode(raw[:-cut] if draw(st.booleans()) else raw + bytes(cut)).decode()
    if action == "partial_row":
        # whole float64 values, but not a whole number of dim-wide rows
        # (so, for a vector, not exactly dim values)
        n = draw(st.integers(1, dim - 1))
        return encode_array(values[:-n] if draw(st.booleans()) else np.append(values, [0.0] * n))
    if action == "empty":
        return ""
    if action == "text":  # the JSON number lists problem files once held
        cells = values.reshape(-1, dim)
        return cells.tolist() if len(cells) > 1 else cells[0].tolist()
    broken = values.copy()
    broken.view(np.uint64)[draw(st.integers(0, len(values) - 1))] = draw(
        st.sampled_from(NON_FINITE_BITS))
    return encode_array(broken)


@st.composite
def mutated_problem_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(valid_problem_docs())))
    # dropping seed leaves a valid file; every other mutation breaks it
    field = draw(st.sampled_from(sorted(set(doc) - {"seed"})))
    actions = ["drop", "replace", "dim"] + (["array"] * 3 if field in ARRAY_FIELDS else [])
    action = draw(st.sampled_from(actions))
    if action == "drop":
        del doc[field]
    elif action == "dim":
        doc["dim"] = draw(st.sampled_from([-1, 0, 1, 2, 4, 7]))
    elif action == "array":
        doc[field] = _broken_array(draw, doc[field], doc["dim"])
    else:
        doc[field] = draw(st.sampled_from(BAD_VALUES))
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_problem_docs_run(fuzz_dir):
    for doc in valid_problem_docs():
        _write_doc(fuzz_dir / "valid.json", doc)
        load_problem(fuzz_dir / "valid.json")
        assert _run_cli(fuzz_dir / "valid.json", fuzz_dir / "valid.csv") == (0, "")


@settings(max_examples=300, deadline=None)
@given(mutated_problem_docs())
def test_mutated_problem_file_is_rejected(fuzz_dir, doc):
    path = fuzz_dir / "mutated.json"
    _write_doc(path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_problem(path)
        except (ValueError, GradcertError):
            pass
        code, err = _run_cli(path, fuzz_dir / "mutated.csv")
    assert code == 1 and err.startswith("error:"), (doc, err)


@pytest.mark.parametrize(
    "make, entry, overflow",
    [
        pytest.param(
            lambda: make_quadratic_problem(SpectrumSpec(20, 1.0, 100.0, "log_uniform", 0)),
            1e200, r"grad f\(x0\)", id="quadratic-grad",
        ),
        pytest.param(
            lambda: make_logistic_problem(20, 40, 0.1, seed=1), 1e200, r"grad f\(x0\)",
            id="logistic-grad",
        ),
        # small curvature: the gradient at x0 stays finite, the gap does not
        pytest.param(
            lambda: make_quadratic_problem(SpectrumSpec(20, 1e-5, 1e-4, "log_uniform", 0)),
            1e157, r"f\(x0\) - f\*", id="quadratic-gap",
        ),
        pytest.param(
            lambda: make_logistic_problem(3, 5, 1e-6, seed=0), 1e155, r"f\(x0\) - f\*",
            id="logistic-gap",
        ),
    ],
)
def test_huge_finite_x0_is_rejected(fuzz_dir, make, entry, overflow):
    spec = make()
    doc = json.loads(spec.to_json())
    doc["x0"] = encode_array([entry] * spec.objective.dim)  # finite cells; x_star kept
    path = fuzz_dir / "huge_x0.json"
    _write_doc(path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"x0 is too large: .*{overflow}"):
            load_problem(path)
        code, err = _run_cli(path, fuzz_dir / "huge_x0.csv")
    assert code == 1 and err.startswith("error: x0 is too large"), err


# -- trace fuzz: one mutation of a valid trace CSV or iterates file -------

# Replacement k cells (NEXT stands for the following row's k), and cells of
# any other column that are empty, a boolean, or text float() rejects.
NEXT = "__next__"
BAD_KS = ["", "-1", "1.5", "x", "inf", "nan", "true", NEXT]
NON_NUMBERS = ["", "true", "x", "1e", "0x10"]
CSV_ACTIONS = [
    "drop_cell", "extra_cell", "bad_k", "non_number", "break_rule", "bad_byte", "truncate",
]
NPZ_ACTIONS = ["drop_key", "dtype", "shape", "non_finite", "huge", "truncate"]


@pytest.fixture(scope="module")
def valid_traces(fuzz_dir):
    problem = fuzz_dir / "trace_problem.json"
    make_quadratic_problem(SpectrumSpec(3, 1.0, 10.0, "log_uniform", 0)).save(problem)
    traces = {}
    for method in ("ag", "cg"):
        path = fuzz_dir / f"valid_{method}.csv"
        argv = ["run", "--problem", str(problem), "--method", method, "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        with np.load(iterates_path(path)) as data:
            traces[method] = (path.read_bytes(), dict(data))
    return problem, traces


def _npz_bytes(arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _mutate_csv(blob, action, i, j, value):
    if action == "truncate":
        return blob[: i % (len(blob) - 1)]  # at least two bytes short
    lines = blob.decode().split("\n")
    row = 1 + i % (len(lines) - 2)  # a data row; the last line is empty
    cells = lines[row].split(",")
    if action == "drop_cell":
        del cells[j % len(cells)]
    elif action == "extra_cell":
        cells.insert(j % (len(cells) + 1), "0")
    elif action == "bad_k":
        cells[0] = str(row) if value == NEXT else value
    elif action == "non_number":
        cells[1 + j % (len(cells) - 1)] = value  # every column after k is a claim
    elif action == "break_rule":
        # a blank cell filled, a boolean flipped, a number moved off its value
        col = 1 + j % (len(cells) - 1)
        cell = cells[col]
        if cell in ("", "true", "false"):
            cells[col] = {"": "0", "true": "false", "false": "true"}[cell]
        else:
            v = float(cell)
            cells[col] = repr(2.0 * abs(v) + 1.0) if math.isfinite(v) else "0"
    lines[row] = ",".join(cells)
    blob = "\n".join(lines).encode()
    if action == "bad_byte":
        pos = i % len(blob)
        blob = blob[:pos] + b"\xff" + blob[pos + 1 :]
    return blob


def _mutate_npz(arrays, action, i, j):
    arrays = dict(arrays)
    key = sorted(arrays)[i % len(arrays)]
    a = arrays[key]
    if action == "truncate":
        blob = _npz_bytes(arrays)
        return blob[: i % len(blob)]
    if action == "drop_key":
        del arrays[key]
    elif action == "dtype":
        if key == "method":
            arrays[key] = np.array(str(a).encode())
        else:
            with np.errstate(invalid="ignore"):  # nan cells cast to int
                arrays[key] = a.astype([np.float32, np.int64, np.complex128, object][j % 4])
    elif action == "shape":
        # one axis more, or one row or column fewer
        arrays[key] = [a[None], a[:-1], a[..., :-1]][j % 3] if a.ndim else a[None]
    else:
        xs = arrays["xs"] = arrays["xs"].copy()
        row = i % len(xs)
        if action == "non_finite":
            xs[row, j % xs.shape[1]] = [np.nan, np.inf, -np.inf][j % 3]
        else:  # finite but past what psi can hold: the audit overflows
            xs[row] = 1e200 * np.where(np.arange(xs.shape[1]) % 2, 1.0, -1.0)
    return _npz_bytes(arrays)


@st.composite
def mutated_traces(draw):
    method = draw(st.sampled_from(["ag", "cg"]))
    i = draw(st.integers(0, 2**16))
    j = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        action = draw(st.sampled_from(CSV_ACTIONS))
        value = draw(st.sampled_from(BAD_KS if action == "bad_k" else NON_NUMBERS))
        return method, ("csv", action, i, j, value)
    return method, ("npz", draw(st.sampled_from(NPZ_ACTIONS)), i, j)


@settings(max_examples=300, deadline=None)
@given(mutated_traces())
def test_mutated_trace_is_rejected(fuzz_dir, valid_traces, mutation):
    problem, traces = valid_traces
    method, (target, action, i, j, *value) = mutation
    csv_blob, arrays = traces[method]
    if target == "csv":
        mutated = _mutate_csv(csv_blob, action, i, j, *value)
        assume(mutated != csv_blob)  # "" over an empty cell, "true" over "true"
        csv_blob = mutated
        npz_blob = _npz_bytes(arrays)
    else:
        npz_blob = _mutate_npz(arrays, action, i, j)
    path = fuzz_dir / "mutated_trace.csv"
    path.write_bytes(csv_blob)
    with open(iterates_path(path), "wb") as fh:
        fh.write(npz_blob)
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (read_trace_csv, read_trace_iterates):
            try:
                read(path)
            except ValueError:
                pass
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["certify", str(path), "--problem", str(problem)])
    assert code == 1 and err.getvalue().startswith("error:"), (mutation, err.getvalue())
