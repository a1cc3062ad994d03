"""Trace CSV layout, alignment, and round trips."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from aids import read_trace_csv_per_cell, write_trace_csv_per_cell
from gradcert import SpectrumSpec, generate_with_start, traces
from gradcert.potential import GAP_BLOCK_ROWS, certify
from gradcert.problems import make_logistic_problem
from gradcert.serialize import fmt_float
from gradcert.solvers import METHODS, Trace, momentum_coefficient, run
from gradcert.traces import (
    TRACE_HEADER,
    check_trace_claims,
    read_trace_csv,
    trace_columns,
    write_trace_csv,
)


@pytest.fixture()
def cg_csv(tmp_path, tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    report = certify(trace, obj)
    path = tmp_path / "cg.csv"
    write_trace_csv(path, trace, obj, report)
    return path, trace, report, obj


@pytest.fixture()
def ag_csv(tmp_path, tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "ag", x0, 200, 1e-10 * obj.f_gap(x0))
    report = certify(trace, obj)
    path = tmp_path / "ag.csv"
    write_trace_csv(path, trace, obj, report)
    return path, trace, report, obj


@pytest.fixture(scope="module")
def long_ag():
    """An AG run longer than two blocks of rows, stopped at its gap."""
    obj, _, x0 = generate_with_start(SpectrumSpec(10, 1.0, 1e6, "log_uniform", seed=0))
    trace = run(obj, "ag", x0, 40_000, 1e-12 * obj.f_gap(x0))
    assert trace.stop_reason == "gap" and len(trace) > 2 * GAP_BLOCK_ROWS
    return trace, obj, certify(trace, obj)


def test_header_is_frozen(cg_csv):
    path, *_ = cg_csv
    first = path.read_text().splitlines()[0]
    assert first == TRACE_HEADER
    assert TRACE_HEADER == (
        "k,f_gap,dist_to_opt,grad_norm,psi,psi_ratio,cert_pass,alpha,beta,rho,theta,nu,pi"
    )


def test_header_names_the_built_columns(cg_csv, ag_csv):
    # the writer's header and the column builder cannot drift apart
    for _, trace, report, obj in (cg_csv, ag_csv):
        assert ["k", *trace_columns(trace, obj, report)] == TRACE_HEADER.split(",")


def test_cg_row_alignment(cg_csv):
    path, trace, report, obj = cg_csv
    cols = read_trace_csv(path)
    n = len(trace)
    assert np.array_equal(cols["k"], np.arange(n))
    # alpha/beta produced x_k: row 0 empty, later rows match the trace
    assert np.isnan(cols["alpha"][0]) and np.isnan(cols["beta"][0])
    assert np.array_equal(cols["alpha"][1:], trace.alphas[1:])
    # schedule leaving x_k: theta identically 0, final row empty
    assert np.array_equal(cols["theta"][:-1], np.zeros(n - 1))
    assert np.isnan(cols["theta"][-1])
    assert cols["nu"][0] == 0.0
    assert np.isnan(cols["nu"][-1]) and np.isnan(cols["pi"][-1])
    nu = trace.alphas[2:] * trace.betas[2:] / trace.alphas[1:-1]
    assert np.allclose(cols["nu"][1:-1], nu, rtol=1e-15, atol=0.0)
    assert np.array_equal(cols["pi"][:-1], trace.alphas[1:])
    # per-step certificate cells stop one short of the last row
    assert np.isnan(cols["cert_pass"][-1]) and np.isnan(cols["psi_ratio"][-1])
    assert set(cols["cert_pass"][:-1].tolist()) <= {0.0, 1.0}


def test_ag_row_alignment(ag_csv):
    path, trace, report, obj = ag_csv
    cols = read_trace_csv(path)
    m = momentum_coefficient(obj.ell, obj.lip)
    # no CG coefficients on a momentum run
    assert np.isnan(cols["alpha"]).all() and np.isnan(cols["beta"]).all()
    assert cols["theta"][0] == 0.0 and cols["nu"][0] == 0.0
    assert np.allclose(cols["theta"][1:-1], m, rtol=1e-15, atol=0.0)
    assert np.allclose(cols["nu"][1:-1], m, rtol=1e-15, atol=0.0)
    assert np.allclose(cols["pi"][:-1], 1.0 / obj.lip, rtol=1e-15, atol=0.0)
    assert np.isnan(cols["theta"][-1])


def test_clean_trace_reads_back_its_columns(cg_csv, ag_csv):
    # the reader returns trace_columns' own form: nan for an empty cell,
    # cert_pass as 1.0/0.0, each float cell to the bit
    for path, trace, report, obj in (cg_csv, ag_csv):
        cols = read_trace_csv(path)
        assert cols["k"].dtype.kind == "i"
        for name, values in trace_columns(trace, obj, report).items():
            assert cols[name].dtype == np.float64, name
            assert np.array_equal(cols[name], values, equal_nan=True), name


def _residual_norm_bound(trace, obj):
    """Rounding bound on certify()'s ||A x_k - b||, read as ||A d_k + (A x* - b)||.

    gamma (|| |A| |d_k| || + || |A| |x*| || + ||b|| + ||A x_k - b||) with
    gamma = (dim + 3) u / (1 - (dim + 3) u) covers the roundings of d_k,
    of the product, of A x* - b, of the sum and of the norm.
    """
    nu = (obj.dim + 3) * 2.0**-53
    abs_a = np.abs(obj.matrix)
    scale = np.linalg.norm(np.abs(trace.xs - obj.minimizer) @ abs_a, axis=1)
    scale += np.linalg.norm(abs_a @ np.abs(obj.minimizer)) + np.linalg.norm(obj.rhs)
    exact = np.linalg.norm(
        trace.xs.astype(np.longdouble) @ obj.matrix.astype(np.longdouble) - obj.rhs, axis=1
    )
    return exact, nu / (1.0 - nu) * (scale + exact)


def test_grad_norm_column(cg_csv, ag_csv):
    # Both methods write certify()'s ||A x_k - b|| from the stored iterates;
    # CG's recurred residual drifts from it and is not written. Against the
    # residual in long double the cells are off by rounding alone.
    for path, trace, report, obj in (cg_csv, ag_csv):
        cols = read_trace_csv(path)
        assert np.array_equal(cols["grad_norm"], report.grad_norms)
        exact, bound = _residual_norm_bound(trace, obj)
        assert np.all(np.abs(cols["grad_norm"] - exact) <= bound)


def test_columns_read_no_objective_data(cg_csv, ag_csv):
    # trace_columns measures nothing: without A and b it builds the same
    # columns from the report, the run's scalars and the curvature bounds
    for _, trace, report, obj in (cg_csv, ag_csv):
        bare = copy.copy(obj)
        del bare.matrix, bare.rhs
        expected = trace_columns(trace, obj, report)
        for name, values in trace_columns(trace, bare, report).items():
            assert np.array_equal(values, expected[name], equal_nan=True), name


def test_logistic_grad_norm_cells():
    # The cells are the norms of grad's rows to 1e-12 relative, from a
    # copy without the data matrix. The run stops at 1e-6 of the initial
    # gap: closer to x* both forms of the gradient lose digits to its
    # cancelling terms.
    problem = make_logistic_problem(5, 20, 0.1, seed=0)
    obj = problem.objective
    trace = run(obj, "ag", problem.x0, 500, 1e-6 * obj.f_gap(problem.x0))
    report = certify(trace, obj)
    bare = copy.copy(obj)
    del bare.data_matrix
    cells = trace_columns(trace, bare, report)["grad_norm"]
    assert np.array_equal(cells, report.grad_norms)
    expected = [np.linalg.norm(obj.grad(x)) for x in trace.xs]
    assert np.allclose(cells, expected, rtol=1e-12, atol=0.0)


def test_float_cells_round_trip_exactly(cg_csv):
    path, trace, report, obj = cg_csv
    cols = read_trace_csv(path)
    assert np.array_equal(cols["psi"], report.psis)
    assert np.array_equal(cols["f_gap"], report.f_gaps)
    assert np.array_equal(cols["rho"], report.rhos)


def test_writes_are_byte_identical(tmp_path, tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    report = certify(trace, obj)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, trace, obj, report)
    write_trace_csv(b, trace, obj, report)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", ["cg_classic", "cg_unified"])
def test_cg_schedule_matches_per_step_loop(tiny_problem, method):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, method, x0, 30, -math.inf)
    nu = trace_columns(trace, obj, certify(trace, obj))["nu"]
    alphas, betas = trace.alphas, trace.betas
    expected = [alphas[k + 1] * betas[k + 1] / alphas[k] for k in range(1, len(trace) - 1)]
    assert len(expected) > 1
    assert nu[0] == 0.0 and np.isnan(nu[-1])
    assert nu[1:-1].tobytes() == np.array(expected).tobytes()


def _assert_matches_oracle(tmp_path, trace, obj, report):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_trace_csv(fast, trace, obj, report)
    write_trace_csv_per_cell(slow, trace, obj, report)
    assert fast.read_bytes() == slow.read_bytes()
    return fast.read_text().splitlines()


@pytest.mark.parametrize("method", METHODS)
def test_writer_matches_per_cell_oracle(tmp_path, tiny_problem, method):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, method, x0, 200, 1e-10 * obj.f_gap(x0))
    _assert_matches_oracle(tmp_path, trace, obj, certify(trace, obj))


@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025])
def test_writer_matches_oracle_at_block_edges(tmp_path, tiny_problem, rows):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    if rows == 1:
        trace = Trace(method="ag", xs=x0[None])
    else:
        trace = run(obj, "ag", x0, rows - 1, -math.inf)
    assert len(trace) == rows
    lines = _assert_matches_oracle(tmp_path, trace, obj, certify(trace, obj))
    assert len(lines) == rows + 1


def test_writer_matches_oracle_on_nonfinite_cells(tmp_path, tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    report = certify(trace, obj)
    ratios, rhos = report.ratios.copy(), report.rhos.copy()
    ratios[0], ratios[1], ratios[2] = np.inf, np.nan, -np.inf
    rhos[2], rhos[3] = np.nan, -0.0
    report = dataclasses.replace(report, ratios=ratios, rhos=rhos)
    lines = _assert_matches_oracle(tmp_path, trace, obj, report)
    rows = [line.split(",") for line in lines[1:]]
    assert [row[5] for row in rows[:3]] == ["inf", "", "-inf"]
    assert rows[2][9] == "" and rows[3][9] == "-0"
    # row 0's alpha and beta are nan: empty cells
    assert rows[0][7] == rows[0][8] == ""


def test_writer_keys_repeated_cells_on_their_bits(tmp_path, tiny_problem):
    # A low-cardinality rho (mostly 0, some -0 and nan) and a constant theta
    # over two blocks: each distinct bit pattern has its own cell, so -0 is
    # not written as 0, although 0.0 == -0.0.
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "ag", x0, 1499, -math.inf)
    report = certify(trace, obj)
    rhos = np.zeros(len(trace))
    rhos[[3, 700, 1030, 1400]] = -0.0
    rhos[[5, 1100]] = np.nan
    lines = _assert_matches_oracle(tmp_path, trace, obj, dataclasses.replace(report, rhos=rhos))
    col = TRACE_HEADER.split(",").index("rho")
    cells = [line.split(",")[col] for line in lines[1:]]
    assert {i for i, cell in enumerate(cells) if cell == "-0"} == {3, 700, 1030, 1400}
    assert {i for i, cell in enumerate(cells) if cell == ""} == {5, 1100}
    assert cells.count("0") == len(trace) - 6


def _signed_zeros():
    zeros = np.zeros(GAP_BLOCK_ROWS)
    zeros[::3] = -0.0
    return zeros


def _with_nans():
    values = np.arange(GAP_BLOCK_ROWS) / 7.0
    values[::4] = np.nan
    values[1::8] = -np.nan  # another bit pattern of nan
    values[2::8] = -0.0
    return values


# Blocks that mislead a look at their first 16 rows, or mix bit patterns
# that compare equal (0.0 and -0.0) or not at all (nan).
ADVERSARIAL_BLOCKS = {
    "distinct-then-repeated": np.r_[np.arange(16) / 7.0, np.full(GAP_BLOCK_ROWS - 16, 0.1)],
    "equal-then-distinct": np.r_[np.full(16, 0.1), np.arange(GAP_BLOCK_ROWS - 16) / 7.0],
    "signed-zeros": _signed_zeros(),
    "nans": _with_nans(),
}


@pytest.mark.parametrize("rows", [0, 1, 10, 16, 17, GAP_BLOCK_ROWS])
@pytest.mark.parametrize("name", list(ADVERSARIAL_BLOCKS))
def test_block_cells_match_per_cell_formatting(name, rows):
    block = ADVERSARIAL_BLOCKS[name][:rows]
    expected = ["" if math.isnan(v) else fmt_float(v) for v in block.tolist()]
    assert traces._csv_cells(block) == expected


def test_writer_matches_oracle_on_adversarial_blocks(tmp_path, tiny_problem):
    # one adversarial block per block of rows, in rho and, reversed, in psi
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    blocks = list(ADVERSARIAL_BLOCKS.values())
    trace = run(obj, "ag", x0, len(blocks) * GAP_BLOCK_ROWS - 1, -math.inf)
    report = dataclasses.replace(
        certify(trace, obj), rhos=np.concatenate(blocks), psis=np.concatenate(blocks[::-1])
    )
    lines = _assert_matches_oracle(tmp_path, trace, obj, report)
    col = TRACE_HEADER.split(",").index("rho")
    assert {"0", "-0", ""} <= {line.split(",")[col] for line in lines[1:]}


def _assert_same_columns(columns, expected):
    assert list(columns) == list(expected)
    for name, values in expected.items():
        assert np.array_equal(columns[name], values, equal_nan=True), name


def _rewritten(tmp_path, lines, col, cells):
    """The CSV of lines with cells {row: text} put in column col."""
    out = list(lines)
    for i, cell in cells.items():
        row = out[i + 1].split(",")
        row[col] = cell
        out[i + 1] = ",".join(row)
    path = tmp_path / "rewritten.csv"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("cells", "bad_row"),
    [({2: "+1"}, None), ({2: " 1 "}, None), ({2: "1e0"}, None), ({2: "nan"}, 2),
     ({2: "banana"}, 2), ({2: "banana", 5: "banana", 9: "banana"}, 2),
     ({2: "nan", 4: "banana", 6: "nan"}, 2), ({6: "1e0", 8: "banana", 9: "1e0"}, 8),
     (dict(enumerate(["nan", "banana", "x", "NaN", "-nan", "one", "1..0", "e"] * 2, 2)), 2)],
    ids=["plus", "spaces", "exponent", "nan", "banana", "banana-thrice", "nan-then-banana",
         "late-banana", "eight-bad-texts-twice"],
)
def test_reader_matches_per_cell_reader_on_repeated_cells(tmp_path, ag_csv, cells, bad_row):
    # theta holds three texts, so the reader parses each distinct one once;
    # the values, or the error naming the first bad row, are the per-cell reader's
    src, *_ = ag_csv
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index("theta")
    path = _rewritten(tmp_path, lines, col, cells)
    if bad_row is not None:
        with pytest.raises(ValueError) as expected:
            read_trace_csv_per_cell(path)
        assert str(expected.value).startswith(f"row {bad_row}, column theta: ")
        with pytest.raises(ValueError) as raised:
            read_trace_csv(path)
        assert str(raised.value) == str(expected.value)
        return
    _assert_same_columns(read_trace_csv(path), read_trace_csv_per_cell(path))


def test_repeated_cells_are_converted_once(tmp_path, monkeypatch, long_ag):
    # An AG trace of n rows has five columns of distinct values (f_gap to
    # psi_ratio); rho, theta, nu and pi each hold one value and a few edge
    # cells per block, and alpha and beta are empty. The writer formats each
    # distinct value of a block's repeated column once, and the reader parses
    # each distinct text of a repeated column once.
    trace, obj, report = long_ag
    n, blocks = len(trace), math.ceil(len(trace) / GAP_BLOCK_ROWS)
    formatted, parsed = [], []
    fmt_floats, number = traces.fmt_floats, traces._number

    def counted_fmt(values):
        formatted.append(len(values))
        return fmt_floats(values)

    def counted_number(cell):
        parsed.append(cell)
        return number(cell)

    monkeypatch.setattr(traces, "fmt_floats", counted_fmt)
    monkeypatch.setattr(traces, "_number", counted_number)
    path = tmp_path / "ag.csv"
    write_trace_csv(path, trace, obj, report)
    assert sum(formatted) <= 5 * n + 16 * blocks
    columns = read_trace_csv(path)
    for name, values in trace_columns(trace, obj, report).items():
        assert np.array_equal(columns[name], values, equal_nan=True), name
    header = TRACE_HEADER.split(",")
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    repeated = [{row[header.index(name)] for row in rows}
                for name in ("alpha", "beta", "rho", "theta", "nu", "pi")]
    assert max(map(len, repeated)) <= 3
    assert sorted(parsed) == sorted(cell for texts in repeated for cell in texts)


def test_reader_parses_every_column(tmp_path, cg_csv):
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    assert list(read_trace_csv(src)) == header
    # a cell that is no number fails in any column, whether or not an audit
    # reads it, and so do true in a number column, nan (the writer leaves
    # nan empty) and a number in cert_pass; the k column has its own test
    bad_cells = [(name, cell) for name in header[1:] for cell in ("banana", "nan")]
    bad_cells += [("f_gap", "true"), ("alpha", "false"), ("cert_pass", "1.0")]
    for name, cell in bad_cells:
        bad = list(lines)
        row = bad[3].split(",")
        row[header.index(name)] = cell
        bad[3] = ",".join(row)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=f"row 2, column {name}: '{cell}'"):
            read_trace_csv(path)


def test_reader_takes_any_text_float_reads(tmp_path, cg_csv):
    # The rule is float()'s, not the writer's: a psi cell rewritten in a form
    # the writer never writes reads back as its value and is certified.
    # Only an empty cell may read nan, so nan and a cell float() refuses fail.
    src, trace, report, obj = cg_csv
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index("psi")
    cell = lines[3].split(",")[col]
    assert "e" not in cell and cell[:2].isdigit()
    forms = [
        "+" + cell,
        " " + cell + " ",
        cell[0] + "_" + cell[1:],
        "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in cell),  # Arabic-Indic digits
        cell + "e+00",
    ]

    original = read_trace_csv(src)
    for form in forms:
        path = _rewritten(tmp_path, lines, col, {2: form})
        columns = read_trace_csv(path)
        for name, values in original.items():
            assert np.array_equal(columns[name], values, equal_nan=True), (form, name)
        check_trace_claims(path, columns, trace, obj, report)
    for form in ("x", "nan"):
        with pytest.raises(ValueError, match=f"row 2, column psi: '{form}'"):
            read_trace_csv(_rewritten(tmp_path, lines, col, {2: form}))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_reader_reads_crlf_and_cr_line_ends(tmp_path, cg_csv, ag_csv, newline):
    for src, *_ in (cg_csv, ag_csv):
        path = tmp_path / "line_ends.csv"
        path.write_bytes(src.read_bytes().replace(b"\n", newline.encode()))
        _assert_same_columns(read_trace_csv(path), read_trace_csv(src))


def test_reader_matches_per_cell_reader_on_a_long_trace(tmp_path, long_ag):
    path = tmp_path / "long.csv"
    write_trace_csv(path, *long_ag)
    _assert_same_columns(read_trace_csv(path), read_trace_csv_per_cell(path))


@pytest.mark.parametrize(("name", "kind"), [("psi", "a number"), ("cert_pass", "true or false")])
def test_reader_refuses_a_quoted_cell(tmp_path, cg_csv, name, kind):
    # the writer never quotes, and the reader does not unquote
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index(name)
    quoted = '"' + lines[3].split(",")[col] + '"'
    path = _rewritten(tmp_path, lines, col, {2: quoted})
    with pytest.raises(ValueError) as raised:
        read_trace_csv(path)
    assert str(raised.value) == f"row 2, column {name}: {quoted!r} is not {kind}"


def test_reader_refuses_a_blank_line(tmp_path, cg_csv):
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    lines.insert(3, "")
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^row 2 has 0 cells, expected 13$"):
        read_trace_csv(path)


def test_reader_echoes_a_long_text_in_part(tmp_path, cg_csv):
    # a refused header or cell shows its first 40 characters and its length
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    col = lines[0].split(",").index("grad_norm")
    path = _rewritten(tmp_path, lines, col, {2: "x" * 100_000})
    with pytest.raises(ValueError) as raised:
        read_trace_csv(path)
    assert str(raised.value) == (
        f"row 2, column grad_norm: {'x' * 40!r}... (100000 characters) is not a number"
    )
    header = "k" * 100_000
    path.write_text("\n".join([header, *lines[1:]]) + "\n")
    with pytest.raises(ValueError) as raised:
        read_trace_csv(path)
    assert str(raised.value) == f"unexpected trace header {'k' * 40!r}... (100000 characters)"


def test_writer_rejects_mismatched_report(tmp_path, tiny_problem):
    obj, x0 = tiny_problem.obj, tiny_problem.x0
    trace = run(obj, "cg_classic", x0, 30, 1e-10 * obj.f_gap(x0))
    short = run(obj, "cg_classic", x0, 3, 1e-30)
    report = certify(short, obj)
    with pytest.raises(ValueError, match="iterates"):
        write_trace_csv(tmp_path / "x.csv", trace, obj, report)


def test_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,f_gap\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_reader_rejects_bad_row_shape(tmp_path, cg_csv):
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    lines[2] = lines[2] + ",0.5"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cells"):
        read_trace_csv(path)


def test_reader_rejects_bad_k_column(tmp_path, cg_csv):
    src, *_ = cg_csv
    lines = src.read_text().splitlines()
    # an out-of-order index, and one that int() cannot take
    for row, k in ((1, "7"), (2, "inf")):
        bad = list(lines)
        bad[row] = k + bad[row][1:]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match="k column"):
            read_trace_csv(path)


def test_reader_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_trace_csv(path)
