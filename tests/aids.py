"""Numerical checks used only by the tests.

Unlike oracle.py these use the package: they probe its objectives and
generator from outside, with plain floating-point arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from gradcert.generate import _reflectors
from gradcert.objective import QuadraticObjective
from gradcert.potential import CHAIN, chain_steps
from gradcert.rng import SplitMix64
from gradcert.serialize import fmt_float
from gradcert.traces import _COLUMNS, trace_columns


@dataclass
class SandwichCheck:
    lower: float
    middle: float
    upper: float
    passed: bool


def validate_sandwich(obj, x, y, *, slack=1e-9):
    """Check the two-sided curvature inequality between a pair of points.

    lower = ell/2 ||x-y||^2, middle = f(y) - f(x) - grad f(x)'(y-x),
    upper = lip/2 ||x-y||^2; passes when lower <= middle <= upper up to
    `slack` relative to the largest of the three magnitudes.
    """
    x = obj._check_vector(x, "x")
    y = obj._check_vector(y, "y")
    diff = y - x
    dist_sq = float(diff @ diff)
    lower = 0.5 * obj.ell * dist_sq
    upper = 0.5 * obj.lip * dist_sq
    middle = float(obj.value(y) - obj.value(x) - obj.grad(x) @ diff)
    scale = max(abs(lower), abs(middle), abs(upper), 1e-300)
    passed = (lower - middle) <= slack * scale and (middle - upper) <= slack * scale
    return SandwichCheck(lower=lower, middle=middle, upper=upper, passed=passed)


def descent_amount(obj, y):
    """f(y) - f(y - grad f(y)/lip), the progress of one gradient step."""
    g = obj.grad(y)
    if isinstance(obj, QuadraticObjective):
        # Exact quadratic expansion; no cancellation for small gradients.
        return float((g @ g) / obj.lip - (g @ (obj.matrix @ g)) / (2.0 * obj.lip**2))
    return float(obj.value(y) - obj.value(y - g / obj.lip))


@dataclass
class DescentCheck:
    decrease: float
    bound: float
    passed: bool


def check_descent_lemma(obj, y, *, slack=1e-9):
    """Verify f(y) - f(y - grad f(y)/lip) >= ||grad f(y)||^2 / (2 lip)."""
    y = obj._check_vector(y, "y")
    g = obj.grad(y)
    bound = float(g @ g) / (2.0 * obj.lip)
    decrease = descent_amount(obj, y)
    passed = (bound - decrease) <= slack * max(bound, abs(decrease), 1e-300)
    return DescentCheck(decrease=decrease, bound=bound, passed=passed)


def conjugacy_drift(trace, obj) -> float:
    """Worst loss of A-orthogonality between consecutive CG directions.

    Returns max over k of |p_k' A p_{k+1}| normalized by the A-norms of the
    two directions; 0 for traces with fewer than two directions. Exact CG
    keeps this at roundoff level, so growth flags a drifting recurrence.
    """
    n = len(trace)
    if n < 3:
        return 0.0
    p = np.nan_to_num(trace.ps[1:])
    ap = p @ obj.matrix
    a_norm_sq = np.einsum("ij,ij->i", p, ap)
    cross = np.einsum("ij,ij->i", p[:-1], ap[1:])
    denom = np.sqrt(np.maximum(a_norm_sq[:-1] * a_norm_sq[1:], 1e-300))
    return float(np.max(np.abs(cross) / denom))


def finite_difference_gradient(func, x, h=1e-6):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


def materialize_orthogonal(spec):
    """The generator's orthogonal factor Q = H_1 ... H_dim as a dense matrix.

    The reference for ``generate._orthogonal_factor``: it multiplies the
    reflectors out one rank-1 update at a time (O(dim^3)), with no compact
    WY form.
    """
    stream = SplitMix64(spec.seed)
    vs, cs = _reflectors(spec, stream)
    q = np.eye(spec.dim)
    # Q = H_1 ... H_dim applied to the identity from the right-most factor
    for v, c in zip(vs[::-1], cs[::-1]):
        q = q - np.outer(v * c, v @ q)
    return q


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    value = float(value)
    if np.isnan(value):
        return ""
    return fmt_float(value)


def write_trace_csv_per_cell(path, trace, obj, report) -> None:
    """The trace CSV of write_trace_csv, formatted one cell at a time.

    The reference the column-wise writer must match byte for byte; it
    writes no iterates file.
    """
    columns = trace_columns(trace, obj, report)
    passes = columns["cert_pass"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for k in range(len(trace)):
            row = {name: _cell(column[k]) for name, column in columns.items()}
            row["cert_pass"] = "" if np.isnan(passes[k]) else _cell(bool(passes[k]))
            writer.writerow([str(k), *row.values()])


def read_trace_csv_per_cell(path) -> dict:
    """The columns of read_trace_csv, each cell parsed on its own.

    The reference the reader must match, value for value, and in its error
    for the first cell, column by column, that is not a number (in
    cert_pass, neither true nor false). Each line, after universal-newline
    decoding, is split on its own. It checks nothing else: the header, row
    shapes and the k column are read_trace_csv's own tests.
    """
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().removesuffix("\n").split("\n")]
    columns = {"k": np.arange(len(rows))}
    for j, name in enumerate(header[1:], 1):
        values = []
        for i, row in enumerate(rows):
            cell = row[j]
            if name == "cert_pass":
                kind, value = "true or false", {"true": 1.0, "false": 0.0, "": np.nan}.get(cell)
            else:
                kind = "a number"
                try:
                    value = float(cell) if cell else np.nan
                except ValueError:
                    value = None
            if value is None or (cell and np.isnan(value)):
                raise ValueError(f"row {i}, column {name}: {cell!r} is not {kind}")
            values.append(value)
        columns[name] = np.array(values, dtype=np.float64)
    return columns


def assert_check_table(report):
    """The invariants of a report's check table (certify()'s or the battery's).

    Every row but certify()'s chain passes exactly where its residual is at
    most its tolerance, a nan failing; the chain's pass bits are
    chain_steps' product form. The readers agree with the first-failure
    rule written out here in plain Python: a row's first failing entry plus
    the step of its entry 0, and the earliest of those, the earlier row
    winning a tie.
    """
    fails = {}
    for name, row in report.checks.items():
        if name == CHAIN:
            with np.errstate(all="ignore"):  # inf / inf, as under certify()
                _, passes = chain_steps(report.psis, report.c_value, report.tol_cert)
            assert np.array_equal(row.passes, passes), name
        else:
            assert np.array_equal(row.passes, row.residuals <= row.tol), name
            assert not row.passes[np.isnan(row.residuals)].any(), name
        bad = [i for i, ok in enumerate(row.passes.tolist()) if not ok]
        fails[name] = bad[0] + row.first if bad else None
    assert report.first_failures == fails
    first = [(k, name) for name, k in fails.items() if k is not None]
    step, name = min(first, key=lambda pair: pair[0], default=(None, None))
    assert (report.first_violation, report.failed_check) == (step, name)
    return fails
