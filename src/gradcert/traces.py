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
``true``/``false``, so identical runs serialize byte-identically.
"""

from __future__ import annotations

import csv

import numpy as np

from .objective import QuadraticObjective
from .serialize import fmt_float
from .solvers import momentum_coefficient

TRACE_HEADER = "k,f_gap,dist_to_opt,grad_norm,psi,psi_ratio,cert_pass,alpha,beta,rho,theta,nu,pi"

_COLUMNS = TRACE_HEADER.split(",")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    value = float(value)
    if np.isnan(value):
        return ""
    return fmt_float(value)


def _gradient_norms(trace, obj) -> np.ndarray:
    if trace.rs is not None:
        # CG's own view of the gradient is the recurred residual.
        return np.linalg.norm(trace.rs, axis=1)
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
        m = 0.0 if report.degenerate else momentum_coefficient(report.ell, report.lip)
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


def write_trace_csv(path, trace, obj, report) -> None:
    """Write the per-iterate CSV for a certified run.

    ``report`` must come from certifying exactly this trace; its psi,
    rho, and pass columns are copied out as-is.
    """
    n = len(trace)
    if n != len(report.psis):
        raise ValueError(
            f"trace has {n} iterates but report covers {len(report.psis)}"
        )
    grad_norms = _gradient_norms(trace, obj)
    theta, nu, pi = _schedule_columns(trace, report)
    alphas, betas = trace.alphas, trace.betas
    cg = alphas is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for k in range(n):
            last = k == n - 1
            writer.writerow(
                [
                    str(k),
                    _cell(report.f_gaps[k]),
                    _cell(np.sqrt(report.dist_sqs[k])),
                    _cell(grad_norms[k]),
                    _cell(report.psis[k]),
                    "" if last else _cell(report.ratios[k]),
                    "" if last else _cell(bool(report.step_passes[k])),
                    _cell(alphas[k]) if cg else "",
                    _cell(betas[k]) if cg else "",
                    _cell(report.rhos[k]),
                    _cell(theta[k]),
                    _cell(nu[k]),
                    _cell(pi[k]),
                ]
            )


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into {column: list-of-cells}.

    Empty cells become None, booleans become bool, everything else float
    (including "inf"/"nan" spellings). Raises ValueError on a header or
    row-shape mismatch.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("trace file is empty") from None
        if header != _COLUMNS:
            raise ValueError(f"unexpected trace header {','.join(header)!r}")
        columns = {name: [] for name in _COLUMNS}
        for i, row in enumerate(reader):
            if len(row) != len(_COLUMNS):
                raise ValueError(f"row {i} has {len(row)} cells, expected {len(_COLUMNS)}")
            for name, cell in zip(_COLUMNS, row):
                columns[name].append(_parse_cell(cell))
    ks = columns["k"]
    # Cells parse to None, bool or float; only the floats 0.0, 1.0, ... are k.
    if any(not isinstance(k, float) or k != j for j, k in enumerate(ks)):
        raise ValueError("k column must count 0,1,2,... in order")
    columns["k"] = [int(k) for k in ks]
    return columns
