"""End-to-end CLI behavior: exit codes, file outputs, exact cells."""

import dataclasses
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcert import cli, potential
from gradcert.cli import _build_parser, main
from gradcert.objective import GAP_BLOCK_ROWS, QuadraticObjective
from gradcert.perturb import sweep
from gradcert.potential import certify
from gradcert.problems import ProblemSpec, encode_array, load_problem, make_logistic_problem
from gradcert.serialize import render_json
from gradcert.solvers import run
from gradcert.traces import iterates_path, read_trace_csv, read_trace_iterates, write_trace_csv


def _quadratic_spec(matrix, rhs, ell, lip, x0, x_star=None):
    obj = QuadraticObjective(matrix, rhs, ell, lip)
    if x_star is not None:
        obj = obj.with_minimizer(x_star)
    return ProblemSpec(obj, x0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def problem_file(workdir):
    path = workdir / "problem.json"
    code = main(
        ["gen", "--dim", "12", "--ell", "1", "--lip", "50", "--seed", "1", "--out", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def dim2_file(workdir):
    # the two-eigenvalue instance whose potential values are known closed-form
    spec = _quadratic_spec(
        [[1.0, 0.0], [0.0, 3.0]], [0.0, 0.0], 1.0, 3.0, x0=[1.0, 1.0], x_star=[0.0, 0.0]
    )
    path = workdir / "dim2.json"
    spec.save(path)
    return path


def test_largest_seeds_round_trip(workdir):
    # seeds past 2**53 have no exact float; the largest SplitMix64 seed is 2**64 - 1
    for seed in (2**53 + 1, 2**64 - 1):
        path = workdir / f"seed_{seed}.json"
        gen = ["gen", "--dim", "5", "--ell", "1", "--lip", "10", "--seed", str(seed)]
        assert main(gen + ["--out", str(path)]) == 0
        assert load_problem(path).seed == seed
        out = workdir / f"seed_{seed}.csv"
        assert main(["run", "--problem", str(path), "--method", "cg", "--out", str(out)]) == 0
        perturb = ["perturb", "--problem", str(path), "--eta", "0", "--seed", str(seed)]
        assert main(perturb + ["--out", str(workdir / f"seed_{seed}_sweep.json")]) == 0


def test_gen_is_deterministic(workdir, problem_file):
    other = workdir / "again.json"
    args = ["gen", "--dim", "12", "--ell", "1", "--lip", "50", "--seed", "1"]
    assert main(args + ["--out", str(other)]) == 0
    assert other.read_bytes() == problem_file.read_bytes()
    spec = load_problem(problem_file)
    assert spec.objective.dim == 12 and spec.seed == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--dim", "0", "--ell", "1", "--lip", "10"],
        ["gen", "--dim", "5", "--ell", "-1", "--lip", "10"],
        ["gen", "--dim", "5", "--ell", "1", "--lip", "10", "--seed", "-3"],
        ["run", "--problem", "p.json", "--method", "newton"],
        ["run", "--problem", "p.json", "--method", "cg", "--iters", "0"],
        ["gen", "--dim", "5", "--ell", "1", "--lip", "nan"],
        ["gen", "--dim", "5", "--ell", "0", "--lip", "10"],
        ["gen", "--dim", "5", "--ell", "1", "--lip", "inf"],
        # SplitMix64 keeps a seed mod 2**64: 2**64 would write seed 0's arrays
        ["gen", "--dim", "5", "--ell", "1", "--lip", "10", "--seed", str(2**64),
         "--out", "missing_dir/p.json"],
        ["perturb", "--problem", "p.json", "--eta", "0", "--seed", str(2**64),
         "--out", "missing_dir/p.json"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


# Every argument of every subcommand: adding or removing one is a visible
# change. The certificate's tolerances and the run's stop rule are fixed,
# so no flag can argue a violation away.
CLI_ARGUMENTS = {
    "gen": ["--dim", "--ell", "--lip", "--layout", "--seed", "--out"],
    "run": ["--problem", "--method", "--iters", "--out"],
    "certify": ["trace", "--problem", "--out"],
    "identities": ["--problem", "--out"],
    "perturb": ["--problem", "--eta", "--iters", "--seed", "--out"],
}


def test_cli_surface_is_pinned():
    (subcommands,) = [a for a in _build_parser()._actions if a.dest == "command"]
    surface = {
        name: [a.option_strings[0] if a.option_strings else a.dest
               for a in sub._actions if a.dest != "help"]
        for name, sub in subcommands.choices.items()
    }
    assert surface == CLI_ARGUMENTS
    assert sum(map(len, surface.values())) == 20


def test_certify_tolerance_is_not_an_argument(workdir, capsys):
    # one AG iterate moved by 1e-3 per coordinate: a chain slack of 1e6
    # would pass it, and no flag can set the slack
    prob = workdir / "moved.json"
    gen = ["gen", "--dim", "20", "--ell", "1", "--lip", "1e4", "--seed", "0"]
    assert main(gen + ["--out", str(prob)]) == 0
    path = workdir / "moved.csv"
    assert main(["run", "--problem", str(prob), "--method", "ag", "--out", str(path)]) == 0
    with np.load(iterates_path(path)) as data:
        arrays = dict(data)
    arrays["xs"] = arrays["xs"].copy()
    arrays["xs"][499] += 1e-3
    np.savez(iterates_path(path), **arrays)
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", str(path), "--problem", str(prob), "--tol-cert", "1e6"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(prob)]) == 1
    assert capsys.readouterr().err.startswith("error: row 499 ")


def test_run_missing_problem_exits_1(workdir, capsys):
    assert main(["run", "--problem", str(workdir / "nope.json"), "--method", "cg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_requires_stored_minimizer(workdir, capsys):
    spec = _quadratic_spec([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 1.0, 2.0, x0=[1.0, 0.0])
    path = workdir / "nostar.json"
    spec.save(path)
    out = workdir / "nostar.csv"
    code = main(["run", "--problem", str(path), "--method", "cg", "--out", str(out)])
    assert code == 1
    assert "x_star" in capsys.readouterr().err


def test_run_dim2_exact_cells(workdir, dim2_file):
    out = workdir / "dim2.csv"
    code = main(["run", "--problem", str(dim2_file), "--method", "cg", "--out", str(out)])
    assert code == 0
    cols = read_trace_csv(out)
    assert cols["k"] == [0, 1, 2]
    assert abs(cols["psi"][0] - 6.0) <= 1e-12
    assert abs(cols["psi"][1] - 29.0 / 35.0) <= 1e-12
    assert abs(cols["psi"][2]) <= 1e-12
    assert abs(cols["f_gap"][1] - 3.0 / 14.0) <= 1e-12
    assert abs(cols["dist_to_opt"][1] - np.sqrt(41.0 / 98.0)) <= 1e-12
    assert abs(cols["rho"][1] - 3.0 / 25.0) <= 1e-12
    assert cols["cert_pass"][:2] == [True, True]
    assert cols["cert_pass"][2] is None


def test_run_then_certify_all_methods(workdir, problem_file, capsys):
    for method in ("cg", "cg-unified", "ag", "ag-unified"):
        out = workdir / f"{method}.csv"
        assert (
            main(["run", "--problem", str(problem_file), "--method", method, "--out", str(out)])
            == 0
        )
        assert (
            main(["certify", str(out), "--problem", str(problem_file)]) == 0
        ), f"{method} trace failed certification"
    assert "chain holds" in capsys.readouterr().out


def test_certify_writes_report(workdir, problem_file):
    trace_path = workdir / "cg.csv"  # written by the previous test's run
    report_path = workdir / "certify.json"
    code = main(
        [
            "certify",
            str(trace_path),
            "--problem",
            str(problem_file),
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["method"] == "cg"
    assert doc["first_violation"] is None
    assert doc["first_telescope_violation"] is None
    assert doc["theorem1_ok"] is True
    assert doc["daniel_ok"] is True
    assert doc["tol_cert"] > 0


def test_certify_report_names_a_trace_path_with_a_tab(workdir, problem_file):
    # JSON strings may not hold a raw control character; the report escapes it
    trace_path = workdir / "tab\there.csv"
    run_cmd = ["run", "--problem", str(problem_file), "--method", "cg", "--out", str(trace_path)]
    assert main(run_cmd) == 0
    report_path = workdir / "tab_certify.json"
    certify_cmd = ["certify", str(trace_path), "--problem", str(problem_file)]
    assert main(certify_cmd + ["--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["trace"] == str(trace_path)


def test_certify_detects_perturbed_iterate(workdir, problem_file, capsys):
    # consistent 10% corruption of one x_k: every cell of that row is
    # recomputed from the fake point, yet the recurrence cannot have
    # produced it, so re-certification must refuse the trace
    spec = load_problem(problem_file)
    obj = spec.objective
    trace = run(obj, "cg_classic", spec.x0, 40, 1e-10 * obj.f_gap(spec.x0))
    k = len(trace) // 2
    xs = trace.xs.copy()
    xs[k] = 1.1 * xs[k]
    tampered = dataclasses.replace(trace, xs=xs)
    report = certify(tampered, obj)
    path = workdir / "tampered.csv"
    write_trace_csv(path, tampered, obj, report)
    out = workdir / "tampered.json"
    code = main(
        ["certify", str(path), "--problem", str(problem_file), "--out", str(out)]
    )
    assert code == 1
    assert "violated" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["first_violation"] is not None
    assert abs(doc["first_violation"] - k) <= 1


def test_certify_cli_agrees_with_certify(workdir, problem_file, capsys):
    # the CLI replays the chain and envelopes with the same checker as certify()
    spec = load_problem(problem_file)
    obj = spec.objective
    for method, name in (("cg", "cg_classic"), ("cg-unified", "cg_unified"),
                         ("ag", "ag"), ("ag-unified", "ag_unified")):
        csv_path = workdir / f"agree_{method}.csv"
        json_path = workdir / f"agree_{method}.json"
        argv = ["run", "--problem", str(problem_file), "--method", method]
        assert main(argv + ["--out", str(csv_path)]) == 0
        main(["certify", str(csv_path), "--problem", str(problem_file), "--out", str(json_path)])
        doc = json.loads(json_path.read_text())
        trace = run(obj, name, spec.x0, 1000, 1e-12 * obj.f_gap(spec.x0))
        report = certify(trace, obj)
        assert doc["first_violation"] == report.first_violation
        assert doc["theorem1_ok"] == report.theorem1_ok
        assert doc["daniel_ok"] == report.daniel_ok
    # an f_gap cell past the Theorem-1 envelope is a claim the iterates refute
    lines = csv_path.read_text().splitlines()
    k = len(lines) // 2
    cells = lines[k].split(",")
    cells[1] = repr(10.0 * float(lines[1].split(",")[1]))
    lines[k] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["certify", str(csv_path), "--problem", str(problem_file)]) == 1
    err = capsys.readouterr().err
    assert f"error: row {k - 1} " in err and "f_gap" in err


@pytest.mark.parametrize("method", ["cg", "cg-unified"])
def test_run_cg_cells_equal_certify_on_stored_iterates(workdir, method):
    # the run certifies CG with the exact gaps the audit recomputes, so the
    # cells it writes are the audit's values bit for bit, not values from
    # the recurred residual that drifts from b - A x
    prob = workdir / "exact_cells.json"
    gen = ["gen", "--dim", "50", "--ell", "1", "--lip", "1e4", "--seed", "1"]
    assert main(gen + ["--out", str(prob)]) == 0
    path = workdir / f"exact_cells_{method}.csv"
    assert main(["run", "--problem", str(prob), "--method", method, "--out", str(path)]) == 0
    cols = read_trace_csv(path)
    report = certify(read_trace_iterates(path), load_problem(prob).objective)
    for name, values in (("psi", report.psis), ("f_gap", report.f_gaps), ("rho", report.rhos)):
        assert np.array_equal(np.array(cols[name]), values), name


def test_certify_bad_k_cell_exits_1(workdir, problem_file, capsys):
    src = workdir / "badk_src.csv"
    argv = ["run", "--problem", str(problem_file), "--method", "ag", "--out", str(src)]
    assert main(argv) == 0
    lines = src.read_text().splitlines()
    lines[2] = "inf" + lines[2][1:]
    bad = workdir / "badk.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["certify", str(bad), "--problem", str(problem_file)]) == 1
    assert "error:" in capsys.readouterr().err



def test_certify_rejects_garbage_in_unaudited_columns(workdir, problem_file, capsys):
    # Every column is audited, but a non-number is refused as malformed
    # before the audit: the error names the cell, not a disagreement.
    src = workdir / "garbage_src.csv"
    argv = ["run", "--problem", str(problem_file), "--method", "cg", "--out", str(src)]
    assert main(argv) == 0
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index("grad_norm")] = "x"
    row[header.index("rho")] = "banana"
    lines[3] = ",".join(row)
    bad = workdir / "garbage.csv"
    bad.write_text("\n".join(lines) + "\n")
    shutil.copyfile(iterates_path(src), iterates_path(bad))
    assert main(["certify", str(src), "--problem", str(problem_file)]) == 0
    capsys.readouterr()
    assert main(["certify", str(bad), "--problem", str(problem_file)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "row 2, column grad_norm" in err


# Every column after k but f_gap and psi, whose forgeries have tests of their own.
OTHER_CLAIMS = [
    "dist_to_opt", "grad_norm", "psi_ratio", "cert_pass", "alpha",
    "beta", "rho", "theta", "nu", "pi",
]


@pytest.fixture(scope="module")
def clean_traces(workdir, problem_file):
    paths = {}
    for method in ("cg", "ag"):
        paths[method] = workdir / f"clean_{method}.csv"
        argv = ["run", "--problem", str(problem_file), "--method", method]
        assert main(argv + ["--out", str(paths[method])]) == 0
    return paths


@pytest.mark.parametrize("method", ["cg", "ag"])
@pytest.mark.parametrize("column", OTHER_CLAIMS)
def test_certify_refuses_one_forged_cell(workdir, problem_file, clean_traces, capsys,
                                         method, column):
    # one cell of row 5 forged, the iterates file kept: a blank cell filled,
    # a boolean flipped, a number moved to 2|v| + 1
    src = clean_traces[method]
    lines = src.read_text().splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[6].split(",")
    flipped = {"": "123", "true": "false", "false": "true"}
    cells[j] = flipped.get(cells[j]) or repr(2.0 * abs(float(cells[j])) + 1.0)
    lines[6] = ",".join(cells)
    path = workdir / "forged_cell.csv"
    path.write_text("\n".join(lines) + "\n")
    shutil.copyfile(iterates_path(src), iterates_path(path))
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(problem_file)]) == 1
    assert f"error: row 5 of {path}: {column} claim " in capsys.readouterr().err


def test_certify_overflowing_iterate_breaks_the_chain(workdir, capsys):
    # a finite iterate past what psi can hold: its cells are inf or empty,
    # they agree with the audit's, and the verdict, not a claim, refuses it
    prob = workdir / "overflow.json"
    gen = ["gen", "--dim", "10", "--ell", "1", "--lip", "100", "--seed", "0"]
    assert main(gen + ["--out", str(prob)]) == 0
    spec = load_problem(prob)
    obj = spec.objective
    trace = run(obj, "ag", spec.x0, 40, 1e-10 * obj.f_gap(spec.x0))
    xs = trace.xs.copy()
    xs[5] = 1e160
    forged = dataclasses.replace(trace, xs=xs)
    path = workdir / "overflow.csv"
    write_trace_csv(path, forged, obj, certify(forged, obj))
    row = path.read_text().splitlines()[6].split(",")
    assert "" in row and "inf" in row
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(prob)]) == 1
    assert capsys.readouterr() == ("certificate chain violated at step 4\n", "")


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("dim", None, id="dim"),
        pytest.param("ell", None, id="ell"),
        pytest.param("L", None, id="L"),
        # int() would truncate 1.5 to 1 and fail later on a shape mismatch
        pytest.param("dim", 1.5, id="dim-fractional"),
        # JSON booleans would otherwise read as 1 / 1.0
        pytest.param("dim", True, id="dim-true"),
        pytest.param("ell", True, id="ell-true"),
        pytest.param("L", False, id="L-false"),
        # numbers spelled as strings are not numbers
        pytest.param("dim", "12", id="dim-string"),
        pytest.param("ell", "1", id="ell-string"),
        pytest.param("L", "50", id="L-string"),
        pytest.param("x0", ["0"] * 12, id="x0-string"),
        pytest.param("rhs", [True] * 12, id="rhs-bool"),
        pytest.param("x0", [1, True] + [0.0] * 10, id="x0-mixed-bool"),
    ],
)
def test_null_problem_field_exits_1(workdir, problem_file, capsys, field, value):
    doc = json.loads(problem_file.read_text())
    doc[field] = value
    path = workdir / f"bad_{field}.json"
    path.write_text(json.dumps(doc))
    out = workdir / f"bad_{field}.csv"
    assert main(["run", "--problem", str(path), "--method", "cg", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and field in err


def test_text_array_problem_file_exits_1(workdir, problem_file, capsys):
    # the arrays written as JSON number lists, as files once stored them
    spec = load_problem(problem_file)
    obj = spec.objective
    doc = {"kind": "quadratic", "dim": obj.dim, "matrix": obj.matrix, "rhs": obj.rhs,
           "x0": spec.x0, "ell": obj.ell, "L": obj.lip, "x_star": obj.minimizer, "seed": 1}
    path = workdir / "text_arrays.json"
    path.write_text(render_json(doc) + "\n")
    out = workdir / "text_arrays.csv"
    assert main(["run", "--problem", str(path), "--method", "cg", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'matrix'" in err and "base64 <f8" in err
    assert not out.exists()


def test_deeply_nested_problem_file_exits_1(workdir, capsys):
    path = workdir / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    out = workdir / "nested.csv"
    assert main(["run", "--problem", str(path), "--method", "cg", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: problem file is nested too deeply")


def test_certify_rejects_foreign_problem(workdir, problem_file, capsys):
    other = workdir / "other.json"
    assert main(["gen", "--dim", "12", "--ell", "1", "--lip", "50", "--seed", "9", "--out", str(other)]) == 0
    code = main(["certify", str(workdir / "cg.csv"), "--problem", str(other)])
    assert code == 1
    assert "row 0" in capsys.readouterr().err


def test_certify_empty_trace_exits_1(workdir, problem_file, capsys):
    from gradcert.traces import TRACE_HEADER

    path = workdir / "headeronly.csv"
    path.write_text(TRACE_HEADER + "\n")
    assert main(["certify", str(path), "--problem", str(problem_file)]) == 1
    assert "no data rows" in capsys.readouterr().err


def test_certify_refutes_forged_claims(workdir, capsys):
    # a halving psi column over vanishing gaps contracts at any C; the audit
    # recomputes both from the stored iterates and names the first lie
    prob = workdir / "forge.json"
    gen = ["gen", "--dim", "20", "--ell", "1", "--lip", "100", "--seed", "0"]
    assert main(gen + ["--out", str(prob)]) == 0
    path = workdir / "forge.csv"
    assert main(["run", "--problem", str(prob), "--method", "ag", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    psi0 = float(lines[1].split(",")[4])
    for k in range(len(lines) - 1):
        cells = lines[k + 1].split(",")
        cells[1] = "1e-30"
        cells[4] = repr(psi0 / 2.0**k)
        lines[k + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(prob)]) == 1
    err = capsys.readouterr().err
    assert "error: row 1 " in err and "psi" in err


@pytest.mark.parametrize("method", ["ag", "cg"])
def test_certify_detects_edited_iterates_file(workdir, problem_file, capsys, method):
    path = workdir / f"edited_{method}.csv"
    argv = ["run", "--problem", str(problem_file), "--method", method, "--out", str(path)]
    assert main(argv) == 0
    with np.load(iterates_path(path)) as data:
        arrays = dict(data)
    k = len(arrays["xs"]) // 2
    arrays["xs"] = arrays["xs"].copy()
    arrays["xs"][k] *= 1.1
    np.savez(iterates_path(path), **arrays)
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(problem_file)]) == 1
    assert f"error: row {k} " in capsys.readouterr().err


def test_certify_flags_uncheckable_cg_scalars(workdir, problem_file, capsys):
    # nan step sizes zero rho and would silence the gap identity; with
    # claims written to match, only counting each step the identity cannot
    # check as a violation refuses the trace
    spec = load_problem(problem_file)
    obj = spec.objective
    trace = run(obj, "cg_classic", spec.x0, 40, 1e-10 * obj.f_gap(spec.x0))
    forged = dataclasses.replace(trace, alphas=np.full_like(trace.alphas, np.nan))
    path = workdir / "nan_alphas.csv"
    write_trace_csv(path, forged, obj, certify(forged, obj))
    out = workdir / "nan_alphas.json"
    assert main(["certify", str(path), "--problem", str(problem_file), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["first_telescope_violation"] == 0
    # the chain held, so the message names the check that failed
    assert capsys.readouterr().out == "gap telescoping violated at step 0\n"


def test_certify_names_a_chain_failure(workdir, problem_file, capsys):
    # an iterate moved off the run, with claims written to match: the
    # chain breaks on the step into it
    spec = load_problem(problem_file)
    obj = spec.objective
    trace = run(obj, "ag", spec.x0, 40, 1e-10 * obj.f_gap(spec.x0))
    xs = trace.xs.copy()
    xs[20] += 1.0
    forged = dataclasses.replace(trace, xs=xs)
    report = certify(forged, obj)
    path = workdir / "moved_ag.csv"
    write_trace_csv(path, forged, obj, report)
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(problem_file)]) == 1
    assert not report.step_passes[report.first_violation]
    assert capsys.readouterr().out == f"certificate chain violated at step {report.first_violation}\n"


@pytest.fixture(scope="module")
def cg_iterates(workdir, problem_file):
    path = workdir / "iterates_src.csv"
    argv = ["run", "--problem", str(problem_file), "--method", "cg", "--out", str(path)]
    assert main(argv) == 0
    with np.load(iterates_path(path)) as data:
        return path, dict(data)


def _npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _set_byte(blob, marker, offset, value) -> bytes:
    blob = bytearray(blob)
    blob[blob.index(marker) + offset] = value
    return bytes(blob)


def _broken_header(old, new) -> bytes:
    # numpy parses the damaged header before zipfile reaches the end of a
    # member this long and checks its CRC
    return _npz(xs=np.zeros((600, 12))).replace(old, new, 1)


def _nan_at_1(xs):
    xs = xs.copy()
    xs[1, 0] = np.nan
    return xs


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda a: None, id="missing"),
        pytest.param(lambda a: b"", id="empty"),
        pytest.param(lambda a: b"not an archive at all", id="garbage"),
        pytest.param(lambda a: _npz(**a)[:-40], id="truncated"),
        pytest.param(lambda a: _npy(a["xs"]), id="bare-npy"),
        # the first central-directory entry claims a compression method or
        # an encryption that zipfile cannot read
        pytest.param(lambda a: _set_byte(_npz(**a), b"PK\x01\x02", 10, 99), id="zip-method"),
        pytest.param(lambda a: _set_byte(_npz(**a), b"PK\x01\x02", 8, 1), id="zip-encrypted"),
        # the xs header's length field cut from 118 to 54 bytes, mid-tuple
        pytest.param(lambda a: _broken_header(b"NUMPY\x01\x00v", b"NUMPY\x01\x006"),
                     id="npy-header-cut"),
        pytest.param(lambda a: _broken_header(b"'<f8'", b"',f8'"), id="npy-header-descr"),
        pytest.param(lambda a: _npz(**{**a, "xs": a["xs"].astype(object)}), id="object-array"),
        pytest.param(lambda a: _npz(**{k: v for k, v in a.items() if k != "alphas"}),
                     id="missing-key"),
        pytest.param(lambda a: _npz(**{**a, "method": np.array("newton")}), id="unknown-method"),
        pytest.param(lambda a: _npz(**{**a, "xs": a["xs"].astype(np.int64)}), id="int-xs"),
        pytest.param(lambda a: _npz(**{**a, "xs": _nan_at_1(a["xs"])}), id="nan-xs"),
        pytest.param(lambda a: _npz(**{**a, "xs": a["xs"][0]}), id="1d-xs"),
        # one iterate fewer than the CSV has rows
        pytest.param(lambda a: _npz(**{k: v[:-1] if v.ndim else v for k, v in a.items()}),
                     id="row-count"),
    ],
)
def test_certify_malformed_iterates_file_exits_1(workdir, problem_file, cg_iterates, capsys, make):
    src, arrays = cg_iterates
    path = workdir / "malformed.csv"
    path.write_bytes(src.read_bytes())
    iterates_file = Path(iterates_path(path))
    iterates_file.unlink(missing_ok=True)
    content = make(arrays)
    if content is not None:
        iterates_file.write_bytes(content)
    capsys.readouterr()
    assert main(["certify", str(path), "--problem", str(problem_file)]) == 1
    assert "error:" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), min_size=1, max_size=4))
def test_certify_survives_flipped_iterates_bytes(workdir, problem_file, cg_iterates, flips):
    # damage the audit reads is an exit 1; damage it never reads (zip
    # timestamps, header padding) may pass; neither raises
    src, arrays = cg_iterates
    blob = bytearray(_npz(**arrays))
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    path = workdir / "flipped.csv"
    path.write_bytes(src.read_bytes())
    Path(iterates_path(path)).write_bytes(bytes(blob))
    assert main(["certify", str(path), "--problem", str(problem_file)]) in (0, 1)


def test_ag_from_minimizer_start_reports_zero_gap(workdir):
    spec = _quadratic_spec(
        [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]],
        [0.25, -1.0, 4.0],
        1.0,
        4.0,
        x0=[0.25, -0.5, 1.0],
        x_star=[0.25, -0.5, 1.0],
    )
    path = workdir / "atstar.json"
    spec.save(path)
    out = workdir / "atstar.csv"
    assert main(["run", "--problem", str(path), "--method", "ag", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    gaps = [line.split(",")[1] for line in lines[1:]]
    assert gaps and all(cell == "0" for cell in gaps)


def test_degenerate_ag_warns(workdir, capsys):
    path = workdir / "flat.json"
    assert main(["gen", "--dim", "3", "--ell", "2", "--lip", "2", "--out", str(path)]) == 0
    out = workdir / "flat.csv"
    assert main(["run", "--problem", str(path), "--method", "ag", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "degenerates" in err
    assert main(["certify", str(out), "--problem", str(path)]) == 0


@pytest.mark.parametrize("scale", [0.5, 0.25])
@pytest.mark.parametrize("method", ["ag", "ag-unified"])
def test_run_diverging_ag_exits_1(workdir, capsys, method, scale):
    # L declared below the true curvature: the run overflows, and the
    # command refuses it instead of writing a trace its own audit rejects
    prob = workdir / f"low_lip_{scale}.json"
    gen = ["gen", "--dim", "50", "--ell", "1", "--lip", "1e4", "--seed", "0"]
    assert main(gen + ["--out", str(prob)]) == 0
    doc = json.loads(prob.read_text())
    doc["L"] *= scale
    prob.write_text(json.dumps(doc))
    out = workdir / f"low_lip_{method}_{scale}.csv"
    capsys.readouterr()
    assert main(["run", "--problem", str(prob), "--method", method, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "diverged" in err
    assert not out.exists() and not Path(iterates_path(out)).exists()



@pytest.mark.parametrize("method", ["cg", "cg-unified"])
def test_run_overflowing_cg_exits_1(workdir, capsys, method):
    # ||g(x0)|| and the gap are finite, so the file loads, but the first
    # p'Ap overflows: the error blames x0, not L
    prob = workdir / "near_limit_x0.json"
    gen = ["gen", "--dim", "10", "--ell", "1", "--lip", "1e6", "--seed", "0"]
    assert main(gen + ["--out", str(prob)]) == 0
    doc = json.loads(prob.read_text())
    doc["x0"] = encode_array([1e148] * doc["dim"])
    prob.write_text(json.dumps(doc))
    out = workdir / f"near_limit_{method}.csv"
    capsys.readouterr()
    assert main(["run", "--problem", str(prob), "--method", method, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {method} diverged after 0 iterations (p'Ap overflowed)")
    assert "too large for float64" in err and "curvature" not in err
    assert not out.exists() and not Path(iterates_path(out)).exists()

def test_run_ag_iters_cap_sizes_nothing(workdir):
    # --iters only caps the steps; the run stops on its gap long before
    prob = workdir / "huge_cap.json"
    assert main(["gen", "--dim", "10", "--ell", "1", "--lip", "100", "--out", str(prob)]) == 0
    out = workdir / "huge_cap.csv"
    run_args = ["run", "--problem", str(prob), "--method", "ag", "--iters", "1000000000"]
    assert main(run_args + ["--out", str(out)]) == 0
    assert len(read_trace_csv(out)["k"]) < 1000


@pytest.mark.parametrize("method", ["ag", "cg"])
def test_run_cells_equal_certify_recomputation(workdir, method):
    # run and certify both take the gaps from f_gap_many on the stored
    # iterates, so the cells a run writes are the audit's own values; the
    # AG trace spans two of f_gap_many's row blocks
    prob = workdir / "cells.json"
    gen = ["gen", "--dim", "30", "--ell", "1", "--lip", "1e4", "--seed", "2"]
    assert main(gen + ["--out", str(prob)]) == 0
    out = workdir / f"cells_{method}.csv"
    run_args = ["run", "--problem", str(prob), "--method", method, "--iters", "20000"]
    assert main(run_args + ["--out", str(out)]) == 0
    columns = read_trace_csv(out)
    report = certify(read_trace_iterates(out), load_problem(prob).objective)
    assert columns["f_gap"] == report.f_gaps.tolist()
    assert columns["psi"] == report.psis.tolist()
    assert method == "cg" or len(report) > GAP_BLOCK_ROWS
    assert main(["certify", str(out), "--problem", str(prob)]) == 0


def test_identities_command(workdir, problem_file, capsys):
    report_path = workdir / "identities.json"
    code = main(
        ["identities", "--problem", str(problem_file), "--out", str(report_path)]
    )
    assert code == 0
    assert "identities hold" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["ok"] is True
    assert doc["first_failures"]["rho_alignment"] is None
    assert set(doc["max_violations"]) >= {"gap_drop", "dist_drop", "orth", "rho_alignment"}
    assert "rho_alignment" not in doc and "rho_ok" not in doc


def test_identities_from_the_minimizer_hold(workdir, capsys):
    # x0 = x* leaves ||x0 - x*|| = 0 to normalize rho_alignment by; the row
    # must hold vacuously, as the others do at F_0 = 0, not alarm at 1e270
    path = workdir / "start_at_star.json"
    gen = ["gen", "--dim", "10", "--ell", "1", "--lip", "100", "--seed", "0"]
    assert main(gen + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["x0"] = doc["x_star"]
    path.write_text(json.dumps(doc))
    report_path = workdir / "start_at_star_id.json"
    code = main(["identities", "--problem", str(path), "--out", str(report_path)])
    assert code == 0, capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["max_violations"]["rho_alignment"] == 0.0
    assert report["first_failures"]["rho_alignment"] is None


def test_identities_certifies_the_run_once(workdir, problem_file, monkeypatch):
    calls = []
    original = potential.certify

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(potential, "certify", counted)
    monkeypatch.setattr(cli, "certify", counted)
    assert main(["identities", "--problem", str(problem_file)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim,lip", [(50, "1e6"), (200, "1e4")])
def test_identities_hold_on_clean_ill_conditioned_problems(workdir, capsys, dim, lip, seed):
    # the run reaches CG's roundoff floor by step dim; states there carry
    # no digits, so the battery must stop at the first of them, not alarm
    path = workdir / f"clean_{dim}_{lip}_{seed}.json"
    gen = ["gen", "--dim", str(dim), "--ell", "1", "--lip", lip, "--seed", str(seed)]
    assert main(gen + ["--layout", "log_uniform", "--out", str(path)]) == 0
    report_path = workdir / f"clean_{dim}_{lip}_{seed}_id.json"
    code = main(["identities", "--problem", str(path), "--out", str(report_path)])
    assert code == 0, capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert 2 <= doc["iterates"] <= dim + 1


def test_identities_rejects_logistic(workdir, capsys):
    path = workdir / "logistic.json"
    make_logistic_problem(4, 16, 0.1, seed=1).save(path)
    assert main(["identities", "--problem", str(path)]) == 1
    assert "quadratic" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cg", "cg-unified"])
def test_run_cg_rejects_logistic(workdir, capsys, method):
    path = workdir / "logistic_cg.json"
    make_logistic_problem(4, 16, 0.1, seed=1).save(path)
    out = workdir / "logistic_cg.csv"
    assert main(["run", "--problem", str(path), "--method", method, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "quadratic" in err
    assert not out.exists()


@pytest.mark.parametrize("fields", [["L"], ["ell", "L"]], ids="-".join)
def test_nonfinite_curvature_bound_exits_1(workdir, problem_file, capsys, fields):
    doc = json.loads(problem_file.read_text())
    doc.update(dict.fromkeys(fields, float("inf")))  # written as Infinity
    path = workdir / "inf_bound.json"
    path.write_text(json.dumps(doc))
    out = workdir / "inf_bound.csv"
    assert main(["run", "--problem", str(path), "--method", "ag", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--method", "cg"],
        ["run", "--method", "ag"],
        ["identities"],
        ["perturb", "--eta", "1e-3"],
    ],
    ids=["run-cg", "run-ag", "identities", "perturb"],
)
def test_huge_finite_x0_exits_1(workdir, problem_file, capsys, command):
    # finite cells whose gradient overflows: refused on load, not blamed on L
    doc = json.loads(problem_file.read_text())
    doc["x0"] = encode_array([1e200] * doc["dim"])
    path = workdir / "huge_x0.json"
    path.write_text(json.dumps(doc))
    out = workdir / "huge_x0.out"
    assert main([command[0], "--problem", str(path), *command[1:], "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: x0 is too large")
    assert not out.exists()


def test_each_command_builds_the_objective_once(workdir, monkeypatch):
    # one QuadraticObjective (one symmetry check and Cholesky factorization)
    # per command: the loaded spec carries it to every consumer
    builds = []
    init = QuadraticObjective.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadraticObjective, "__init__", counted)
    prob, trace = str(workdir / "once.json"), str(workdir / "once.csv")
    gen = ["gen", "--dim", "10", "--ell", "1", "--lip", "100", "--seed", "4"]
    commands = {
        "gen": gen + ["--out", prob],
        "run": ["run", "--problem", prob, "--method", "cg", "--out", trace],
        "certify": ["certify", trace, "--problem", prob],
        "identities": ["identities", "--problem", prob],
        "perturb": ["perturb", "--problem", prob, "--eta", "0,1e-3", "--iters", "20",
                    "--out", str(workdir / "once_perturb.json")],
    }
    counts = {}
    for name, argv in commands.items():
        builds.clear()
        assert main(argv) == 0, name
        counts[name] = len(builds)
    assert counts == dict.fromkeys(commands, 1)


def test_perturb_command(workdir, problem_file, capsys):
    out = workdir / "sweep.json"
    code = main(
        [
            "perturb",
            "--problem",
            str(problem_file),
            "--eta",
            "0,1e-2",
            "--iters",
            "40",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert [entry["eta"] for entry in doc] == [0.0, 1e-2]
    assert doc[0]["first_violation"] is None
    # why each run stopped and how far its recurrence drifted
    assert all(isinstance(entry["stop_reason"], str) for entry in doc)
    assert all(entry["max_drift"] >= 0.0 for entry in doc)
    assert "first_violation=none" in capsys.readouterr().out
    # each entry is its detection report, psi included value for value
    spec = load_problem(problem_file)
    obj = spec.objective
    reports = sweep(obj, obj.minimizer, [0.0, 1e-2], [0], 40, x0=spec.x0)
    for entry, r in zip(doc, reports, strict=True):
        assert entry == {
            "eta": r.eta,
            "seed": r.seed,
            "first_violation": r.first_violation,
            "iterations_run": r.iterations_run,
            "stop_reason": r.stop_reason,
            "max_drift": r.max_drift,
            "psi": r.psis.tolist(),
        }
        assert len(entry["psi"]) == entry["iterations_run"] + 1


def test_perturb_bad_eta_exits_1(workdir, problem_file, capsys):
    code = main(["perturb", "--problem", str(problem_file), "--eta", "a,b"])
    assert code == 1
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["nan", "inf", "1e400", "0,nan"])
def test_perturb_non_finite_eta_exits_1(workdir, problem_file, capsys, eta):
    out = workdir / "nonfinite_eta.json"
    code = main(["perturb", "--problem", str(problem_file), "--eta", eta, "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
