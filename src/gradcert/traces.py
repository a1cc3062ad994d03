"""Flat CSV views of solver runs.

One row per iterate k. ``trace_columns`` defines every column after k,
once, for the writer and for the audit of a written trace; a cell whose
quantity is undefined at that k is empty. It measures nothing: every
value read from the iterates is certify()'s (``f_gap``, ``dist_to_opt``,
``grad_norm``, ``psi``, ``rho`` and the verdicts), and the rest come from
the run's own scalars and the curvature bounds. Alignment rules:

* ``alpha``/``beta`` on row k are the CG coefficients that produced x_k,
  so row 0 leaves them empty (an AG trace, every row).
* ``theta``/``nu``/``pi`` on row k are the two-parameter schedule values
  consumed when leaving x_k; the final row leaves them empty.  For CG
  these come from the next row's alpha/beta (nu_k = alpha_{k+1}
  beta_{k+1} / alpha_k, pi_k = alpha_{k+1}).
* ``psi_ratio`` on row k is psi_k / psi_{k+1} ("inf" when the run
  terminates exactly); ``cert_pass`` on row k is the certificate check
  for the step leaving x_k.  Both are empty on the final row.

Floats are written with 17 significant digits and booleans as
``true``/``false``, so identical runs serialize byte-identically; the
writer formats a column of a block of rows in one pass (see
``serialize.fmt_floats``). Where values repeat, each distinct value is
converted once: a block of a column with at most half its cells distinct
(on an AG trace rho, theta, nu and pi) formats each distinct float64 bit
pattern once, and the reader parses each distinct text of such a column
once, through the same rule as any other cell. The writer counts a block's
distinct values only when its first rows repeat, so the measured columns
skip the count. The format has no quoting: lines, after universal-newline
decoding, of cells split on ``,``. The reader splits the whole file once
into lines and once into cells, and takes each column as a slice of the
cells. ``grad_norm`` is certify()'s
``CertificateReport.grad_norms``: ``||A x_k - b||`` (``||grad f(x_k)||``
off quadratics) from the stored iterates on every method, never CG's
recurred residual.

Beside each CSV, at ``<csv path>.npz``, the writer stores the run itself
bit for bit: the method, the iterates ``xs`` and, on CG runs, the
``alphas`` and ``prev_res_sqs`` that fix the weight rho. A later audit
re-certifies that file; every cell of the CSV is then only a claim.
``read_trace_csv`` reads the claims back in trace_columns' own form, so
``check_trace_claims`` holds them against the columns rebuilt from the
stored run with one array comparison per column.
"""

from __future__ import annotations

import itertools
import os
import tokenize
import zipfile

import numpy as np

from .objective import _finite
from .potential import CHAIN, GAP_BLOCK_ROWS, chain_steps
from .serialize import fmt_floats
from .solvers import METHOD_FAMILY, METHODS, Trace, momentum_coefficient

TRACE_HEADER = "k,f_gap,dist_to_opt,grad_norm,psi,psi_ratio,cert_pass,alpha,beta,rho,theta,nu,pi"

_COLUMNS = TRACE_HEADER.split(",")

# cert_pass cells by value and back; any other value, nan on the last row, is empty.
_PASS_CELLS = {1.0: "true", 0.0: "false"}
_PASS_VALUES = {cell: value for value, cell in _PASS_CELLS.items()}
_EMPTY_AS_NAN = {"": "nan"}
# Rows of a block the writer looks at before it counts a column's distinct values.
_PROBE_ROWS = 16
# Characters of a refused header or cell that an error message shows.
_ECHO_CHARS = 40


def _csv_cells(values: np.ndarray) -> list[str]:
    """Cells of a float column: fmt_float text, empty where nan.

    When at most half the cells are distinct, each distinct float64 bit
    pattern is formatted once. The table is keyed on the bits, not the
    value: 0.0 == -0.0, but their cells are 0 and -0. A block whose first
    _PROBE_ROWS values are more than half distinct is formatted cell by
    cell without counting the rest; either way every cell is the same.
    """
    bits = values.view(np.uint64)
    probe = bits[:_PROBE_ROWS].tolist()
    if 0 < 2 * len(set(probe)) <= len(probe):
        keys = np.unique(bits)
        if 2 * len(keys) <= len(values):
            # keys are distinct, so this call formats them one by one
            table = _csv_cells(keys.view(np.float64))
            return list(map(table.__getitem__, np.searchsorted(keys, bits).tolist()))
    cells = fmt_floats(values)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def trace_columns(trace, obj, report) -> dict:
    """Every column after k, by name in header order, as float arrays.

    The measured columns are ``report``'s (certify() of this trace on obj),
    so obj lends only its curvature bounds. nan marks an empty cell and
    cert_pass is 1.0 (true) or 0.0 (false). Iterates that overflow give inf
    or empty cells, without a warning.
    """
    n = len(trace)
    last = n - 1
    theta, nu, pi = np.full((3, n), np.nan)
    alphas = betas = np.full(n, np.nan)
    with np.errstate(all="ignore"):
        if report.method == "cg":
            alphas, betas = trace.alphas, trace.betas
            theta[1:last] = 0.0
            nu[1:last] = alphas[2:] * betas[2:] / alphas[1:last]
            pi[:last] = alphas[1:]
        else:
            theta[1:last] = nu[1:last] = momentum_coefficient(obj.ell, obj.lip)
            pi[:last] = 1.0 / obj.lip
        if last:  # both schedules leave x_0 at rest
            theta[0] = nu[0] = 0.0
        return {
            "f_gap": report.f_gaps,
            "dist_to_opt": np.sqrt(report.dist_sqs),
            "grad_norm": report.grad_norms,
            "psi": report.psis,
            "psi_ratio": np.append(report.ratios, np.nan),
            "cert_pass": np.append(report.checks[CHAIN], np.nan),
            "alpha": alphas,
            "beta": betas,
            "rho": report.rhos,
            "theta": theta,
            "nu": nu,
            "pi": pi,
        }


def iterates_path(csv_path) -> str:
    """Path of the iterates file that accompanies a trace CSV."""
    return os.fspath(csv_path) + ".npz"


def write_trace_csv(path, trace, obj, report) -> None:
    """Write the per-iterate CSV for a certified run, and its iterates file.

    ``report`` must come from certifying exactly this trace; its psi,
    rho, and pass columns are copied out as-is.
    """
    n = len(trace)
    if n != len(report.psis):
        raise ValueError(f"trace has {n} iterates but report covers {len(report.psis)}")
    columns = trace_columns(trace, obj, report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        # one block of rows per write bounds the cell strings held at once
        for lo in range(0, n, GAP_BLOCK_ROWS):
            hi = min(lo + GAP_BLOCK_ROWS, n)
            cells = [list(map(str, range(lo, hi)))]
            for name, column in columns.items():
                block = column[lo:hi]
                if name == "cert_pass":
                    cells.append(list(map(_PASS_CELLS.get, block.tolist(), itertools.repeat(""))))
                else:
                    cells.append(_csv_cells(block))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    arrays = {"method": np.array(trace.method), "xs": trace.xs}
    if trace.alphas is not None:
        arrays.update(alphas=trace.alphas, prev_res_sqs=trace.prev_res_sqs)
    with open(iterates_path(path), "wb") as fh:
        np.savez(fh, **arrays)


def _shown(name: str, value: float) -> str:
    if np.isnan(value):
        return "empty"
    return _PASS_CELLS[value] if name == "cert_pass" else repr(float(value))


def check_trace_claims(path, columns, trace, obj, report) -> None:
    """Raise ValueError at the first cell of the read-back CSV ``columns`` the audit refutes.

    Each column after k must be nan exactly where trace_columns of the
    stored run (``report`` certifying it) is nan, and equal it elsewhere.
    Cells measured from the iterates, whose last bits depend on the BLAS
    that wrote them, may be off by tol_cert psi_0 (psi, (2/l) f_gap) or by
    tol_cert times the column's largest finite magnitude (dist_to_opt,
    grad_norm, rho). psi_ratio and cert_pass are held against certify's
    chain test on the claimed psi cells, so psi is checked first.
    """
    with np.errstate(all="ignore"):
        expected = trace_columns(trace, obj, report)
        bound = report.tol_cert * report.psis[0]
        tols = {"psi": bound, "f_gap": bound * obj.ell / 2.0}
        for name in ("dist_to_opt", "grad_norm", "rho"):
            finite = np.abs(expected[name][np.isfinite(expected[name])])
            tols[name] = report.tol_cert * finite.max(initial=0.0)
        for name in sorted(expected, key=lambda name: name != "psi"):
            claims, values = columns[name], expected[name]
            agree = (claims == values) | (np.abs(claims - values) <= tols.get(name, 0.0))
            bad = np.flatnonzero(~(agree | (np.isnan(claims) & np.isnan(values))))
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"row {k} of {path}: {name} claim {_shown(name, claims[k])} "
                    f"disagrees with the audit's {_shown(name, values[k])}"
                )
            if name == "psi":
                ratios, passes = chain_steps(claims, report.c_value, report.tol_cert)
                expected["psi_ratio"] = np.append(ratios, np.nan)
                expected["cert_pass"] = np.append(passes, np.nan)


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _echo(text: str) -> str:
    """repr of a refused text, cut to its first _ECHO_CHARS characters and its length."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into the arrays trace_columns builds, k first.

    The format is lines, after universal-newline decoding (so CRLF and CR
    line ends read as LF), of cells split on ``,``, with no quoting: the
    header is TRACE_HEADER and each row has its 13 cells. ``k`` is an int
    array whose cells must read exactly 0, 1, 2, ...; cert_pass reads true
    as 1.0, false as 0.0 and an empty cell as nan. Every other column is
    float64: an empty cell reads nan, and any other cell is whatever float()
    reads from it, so forms the writer never writes (a leading +,
    surrounding spaces, underscores between digits, non-ASCII decimal
    digits, an e+00 exponent) read as their value. Any other cell, one
    spelling nan or in quotes included, raises ValueError naming its row
    and column, as does a header or row-shape mismatch.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise ValueError("trace file is empty")
    header, *rows = text.removesuffix("\n").split("\n")
    del text  # the file is held once at a time: as text, as lines, as cells
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {_echo(header)}")
    n, width = len(rows), len(_COLUMNS)
    commas = list(map(str.count, rows, itertools.repeat(",")))
    if commas.count(width - 1) != n:
        i = next(i for i, count in enumerate(commas) if count != width - 1)
        cells = commas[i] + 1 if rows[i] else 0
        raise ValueError(f"row {i} has {cells} cells, expected {width}")
    # one split of all rows; column j is every width-th cell from j
    text = ",".join(rows)
    del rows
    flat = text.split(",") if n else []
    del text
    if flat[::width] != list(map(str, range(n))):
        raise ValueError("k column must count 0,1,2,... in order")
    columns = {"k": np.arange(n)}
    for j, name in enumerate(_COLUMNS[1:], 1):
        column = flat[j::width]
        if name == "cert_pass":
            values = map(_PASS_VALUES.get, column, itertools.repeat(np.nan))
        else:
            distinct = set(column)
            if 2 * len(distinct) <= n:  # each distinct text parsed once
                table = dict(zip(distinct, map(_number, distinct)))
                values = map(table.__getitem__, column)
            else:  # float() of every cell, an empty one as nan
                values = map(float, map(_EMPTY_AS_NAN.get, column, column))
        try:
            values = np.fromiter(values, dtype=np.float64, count=n)
        except ValueError:  # some cell is no number: it reads nan, refused below
            values = np.fromiter(map(_number, column), dtype=np.float64, count=n)
        columns[name] = values
        # Only an empty cell may read nan: one that is no number (in cert_pass,
        # neither true nor false) or spells nan, which the writer leaves empty, fails.
        nans = np.flatnonzero(np.isnan(values)).tolist()
        if len(nans) != column.count(""):
            i = next(i for i in nans if column[i])
            kind = "true or false" if name == "cert_pass" else "a number"
            raise ValueError(f"row {i}, column {name}: {_echo(column[i])} is not {kind}")
    return columns


def read_trace_iterates(csv_path) -> Trace:
    """Load the iterates file written beside a trace CSV, strictly.

    Accepts only a method in METHODS, ``xs`` as a 2-D float64 array whose
    entries pass the package's one finite-array check and, on CG traces,
    ``alphas`` and ``prev_res_sqs`` as float64 with one entry per iterate.
    Anything else, an unreadable archive included, raises ValueError.
    certify() computes the gaps from the iterates, as it does for a fresh
    run.
    """
    path = iterates_path(csv_path)
    try:
        # Opened here, not by np.load, which leaves its own handle open when
        # a damaged archive fails to parse.
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            arrays = {key: data[key] for key in data.files}
    # A damaged archive surfaces as any of these: zipfile raises
    # NotImplementedError and RuntimeError for entries flagged as
    # compressed or encrypted in ways it cannot read, and numpy's header
    # parser lets SyntaxError and tokenize.TokenError escape.
    except (
        ValueError,
        EOFError,
        zipfile.BadZipFile,
        NotImplementedError,
        RuntimeError,
        SyntaxError,
        tokenize.TokenError,
    ) as exc:
        raise ValueError(f"unreadable iterates file {path}: {exc}") from None

    def field(name):
        if name not in arrays:
            raise ValueError(f"iterates file {path} lacks {name!r}")
        return arrays[name]

    method = field("method")
    if method.dtype.kind != "U" or method.shape != () or str(method) not in METHODS:
        raise ValueError(f"iterates file {path}: unknown method {method!r}")
    method = str(method)
    xs = field("xs")
    if xs.dtype != np.float64 or xs.ndim != 2:
        raise ValueError(f"iterates file {path}: xs must be a 2-D float64 array")
    _finite(xs, f"iterates file {path}: xs")
    scalars = {}
    if METHOD_FAMILY[method] == "cg":
        for name in ("alphas", "prev_res_sqs"):
            arr = field(name)
            if arr.dtype != np.float64 or arr.shape != (xs.shape[0],):
                raise ValueError(
                    f"iterates file {path}: {name!r} must be float64, one entry per iterate"
                )
            scalars[name] = arr
    return Trace(method=method, xs=xs, **scalars)
