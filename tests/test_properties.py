"""Property-based checks for the interface-level invariants."""

import contextlib
import copy
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcert import cli
from gradcert.errors import GradcertError
from gradcert.generate import SpectrumSpec
from gradcert.objective import QuadraticObjective
from gradcert.potential import certify, contraction_constant
from gradcert.problems import load_problem, make_logistic_problem, make_quadratic_problem
from gradcert.rng import SplitMix64, substream_seed
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


@st.composite
def mutated_problem_docs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(valid_problem_docs())))
    # dropping seed leaves a valid file; every other mutation breaks it
    field = draw(st.sampled_from(sorted(set(doc) - {"seed"})))
    action = draw(st.sampled_from(["drop", "replace", "ragged", "dim"]))
    if action == "drop":
        del doc[field]
    elif action == "dim":
        doc["dim"] = draw(st.sampled_from([-1, 0, 1, 2, 4, 7]))
    elif not isinstance(doc[field], list):
        doc[field] = draw(st.sampled_from(BAD_VALUES))
    else:
        rows = doc[field]
        i = draw(st.integers(0, len(rows) - 1))
        if isinstance(rows[i], list):  # a matrix: edit one cell of row i
            rows, i = rows[i], draw(st.integers(0, len(rows[i]) - 1))
            if action == "ragged":
                if draw(st.booleans()):
                    rows.append(0.0)
                else:
                    rows.pop()
                return doc
        rows[i] = [rows[i]] if action == "ragged" else draw(st.sampled_from(BAD_VALUES))
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


# -- trace fuzz: one mutation of a valid trace CSV or iterates file -------

# Replacement k cells (NEXT stands for the following row's k), and psi or
# f_gap cells that are empty, a boolean, or text float() rejects.
NEXT = "__next__"
BAD_KS = ["", "-1", "1.5", "x", "inf", "nan", "true", NEXT]
NON_NUMBERS = ["", "true", "x", "1e", "0x10"]
CSV_ACTIONS = ["drop_cell", "extra_cell", "bad_k", "non_number", "bad_byte", "truncate"]
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
        cells[(1, 4)[j % 2]] = value  # f_gap or psi, the columns certify reads
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
        csv_blob = _mutate_csv(csv_blob, action, i, j, *value)
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
