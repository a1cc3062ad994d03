"""Flat CSV views of solver runs.

One row per iterate k. Scalar columns carry the quantities that were live
at that iterate; cells whose quantity is undefined at that k are empty.
Alignment rules:

* ``alpha``/``beta`` on row k are the CG coefficients that produced x_k,
  so row 0 leaves them empty.
* ``theta``/``nu``/``pi`` on row k are the two-parameter schedule values
  consumed when leaving x_k; the final row leaves them empty.  For CG
  these come from the next row's alpha/beta (nu_k = alpha_{k+1}
  beta_{k+1} / alpha_k, pi_k = alpha_{k+1}).
* ``psi_ratio`` on row k is psi_k / psi_{k+1} ("inf" when the run
  terminates exactly); ``cert_pass`` on row k is the certificate check
  for the step leaving x_k.  Both are empty on the final row.

Floats are written with 17 significant digits and booleans as
``true``/``false``, so identical runs serialize byte-identically. The
writer formats a whole column of a block of rows in one pass (see
``serialize.fmt_floats``) and marks nan cells empty through a mask; the
text is the same as formatting cell by cell. ``grad_norm`` is
``||A x_k - b||`` (``||grad f(x_k)||`` off quadratics) from the stored
iterates on every method, never CG's recurred residual.

Beside each CSV, at ``<csv path>.npz``, the writer stores the run itself
bit for bit: the method, the iterates ``xs`` and, on CG runs, the
``alphas`` and ``prev_res_sqs`` that fix the weight rho. That file, not
the CSV's derived columns, is what a later audit re-certifies.
"""

from __future__ import annotations

import csv
import os
import tokenize
import zipfile

import numpy as np

from .objective import QuadraticObjective
from .serialize import fmt_floats
from .solvers import METHODS, Trace, momentum_coefficient

TRACE_HEADER = "k,f_gap,dist_to_opt,grad_norm,psi,psi_ratio,cert_pass,alpha,beta,rho,theta,nu,pi"

_COLUMNS = TRACE_HEADER.split(",")

# Rows formatted per write: bounds the cell strings held at once.
_BLOCK_ROWS = 1024


def _csv_cells(values: np.ndarray) -> list[str]:
    """Cells of a float column: fmt_float text, empty where nan."""
    empty = np.isnan(values)
    if empty.all():
        return [""] * len(values)
    cells = fmt_floats(values)
    for i in np.flatnonzero(empty).tolist():
        cells[i] = ""
    return cells


def _gradient_norms(trace, obj) -> np.ndarray:
    # From the iterates, like every audited cell, never from a recurrence.
    if isinstance(obj, QuadraticObjective):
        return np.linalg.norm(trace.xs @ obj.matrix - obj.rhs, axis=1)
    return np.array([np.linalg.norm(obj.grad(x)) for x in trace.xs])


def _schedule_columns(trace, report):
    """(theta, nu, pi) consumed at each k < n-1, as nan-padded arrays."""
    n = len(trace)
    theta = np.full(n, np.nan)
    nu = np.full(n, np.nan)
    pi = np.full(n, np.nan)
    if n < 2:
        return theta, nu, pi
    last = n - 1
    if report.method == "ag":
        m = momentum_coefficient(report.ell, report.lip)
        theta[:last] = m
        nu[:last] = m
        theta[0] = nu[0] = 0.0
        pi[:last] = 1.0 / report.lip
    else:
        alphas = trace.alphas
        betas = trace.betas
        theta[:last] = 0.0
        nu[0] = 0.0
        for k in range(1, last):
            nu[k] = alphas[k + 1] * betas[k + 1] / alphas[k]
        pi[:last] = alphas[1 : last + 1]
    return theta, nu, pi


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
        raise ValueError(
            f"trace has {n} iterates but report covers {len(report.psis)}"
        )
    theta, nu, pi = _schedule_columns(trace, report)
    alphas, betas = trace.alphas, trace.betas
    cg = alphas is not None
    if not cg:
        alphas = betas = np.full(n, np.nan)
    # The per-step cells (psi_ratio, cert_pass) are empty on the last row.
    ratios = np.append(report.ratios, np.nan)
    passes = np.append(np.where(report.step_passes, "true", "false"), "")
    # Columns after k, in header order; each is a float column but cert_pass.
    columns = [
        report.f_gaps,
        np.sqrt(report.dist_sqs),
        _gradient_norms(trace, obj),
        report.psis,
        ratios,
        passes,
        alphas,
        betas,
        report.rhos,
        theta,
        nu,
        pi,
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            cells = [list(map(str, range(lo, hi)))]
            for column in columns:
                block = column[lo:hi]
                cells.append(block.tolist() if column is passes else _csv_cells(block))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    arrays = {"method": np.array(trace.method), "xs": trace.xs}
    if cg:
        arrays.update(alphas=alphas, prev_res_sqs=trace.prev_res_sqs)
    with open(iterates_path(path), "wb") as fh:
        np.savez(fh, **arrays)


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def read_trace_csv(path, names=None) -> dict:
    """Read a trace CSV back into {column: list-of-cells}.

    Empty cells become None, booleans become bool, everything else float
    (including "inf"/"nan" spellings). ``names`` picks the columns to
    convert (default all); ``k`` is always read and checked. Raises
    ValueError on a header or row-shape mismatch, or an unknown name.
    """
    wanted = _COLUMNS if names is None else ["k"] + [nm for nm in names if nm != "k"]
    unknown = sorted(set(wanted) - set(_COLUMNS))
    if unknown:
        raise ValueError(f"no trace column named {unknown[0]!r}")
    width = len(_COLUMNS)
    raw = {name: [] for name in wanted}
    picks = [(raw[name].append, _COLUMNS.index(name)) for name in wanted]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("trace file is empty") from None
        if header != _COLUMNS:
            raise ValueError(f"unexpected trace header {','.join(header)!r}")
        for i, row in enumerate(reader):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
            for append, j in picks:
                append(row[j])
    columns = {name: list(map(_parse_cell, cells)) for name, cells in raw.items()}
    ks = columns["k"]
    # Cells parse to None, bool or float; only the floats 0.0, 1.0, ... are k.
    if any(not isinstance(k, float) or k != j for j, k in enumerate(ks)):
        raise ValueError("k column must count 0,1,2,... in order")
    columns["k"] = [int(k) for k in ks]
    return columns


def read_trace_iterates(csv_path) -> Trace:
    """Load the iterates file written beside a trace CSV, strictly.

    Accepts only a method in METHODS, ``xs`` as a finite 2-D float64 array
    and, on CG traces, ``alphas`` and ``prev_res_sqs`` as float64 with one
    entry per iterate. Anything else, an unreadable archive included,
    raises ValueError. The Trace carries no gaps, so certify() recomputes
    them from the iterates.
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
    if xs.dtype != np.float64 or xs.ndim != 2 or not np.all(np.isfinite(xs)):
        raise ValueError(f"iterates file {path}: xs must be a finite 2-D float64 array")
    scalars = {}
    if method.startswith("cg"):
        for name in ("alphas", "prev_res_sqs"):
            arr = field(name)
            if arr.dtype != np.float64 or arr.shape != (xs.shape[0],):
                raise ValueError(
                    f"iterates file {path}: {name!r} must be float64, one entry per iterate"
                )
            scalars[name] = arr
    return Trace(method=method, xs=xs, **scalars)
