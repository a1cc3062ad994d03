"""Shared fixtures: the randomized problem grid and the dim-2 instance.

The grid (3 dims x 3 condition numbers x 2 spectrum layouts x 5 seeds) is
generated once per session; solver runs over it are certified once and the
reports cached, since several acceptance criteria read the same runs.
Traces are dropped after certification to keep memory flat (the kappa=1e6
AG runs are thousands of iterations long).
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from gradcert import (
    QuadraticObjective,
    SpectrumSpec,
    certify,
    generate_with_start,
    run,
)

# (number, line) pairs pushed by the acceptance tests; echoed after the run.
CRITERION_LINES = []


def record_criterion(number, ok, detail=""):
    """Register one acceptance verdict and assert it.

    The line is printed immediately (visible under -s) and replayed in the
    terminal summary so a plain ``pytest -v`` run still shows every verdict.
    """
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {number}: {verdict}" + (f"  [{detail}]" if detail else "")
    CRITERION_LINES.append((number, line))
    print(line)
    assert ok, f"criterion {number} failed: {detail}"


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


GRID_DIMS = (10, 50, 200)
GRID_KAPPAS = (10.0, 1e3, 1e6)
GRID_LAYOUTS = ("log_uniform", "two_cluster")
GRID_SEEDS = tuple(range(5))

# Generous caps; every grid run stops on the 1e-10 relative gap first.
AG_MAX_ITERS = 40_000
CG_MAX_ITERS = 4_000


def grid_cells():
    for dim in GRID_DIMS:
        for kappa in GRID_KAPPAS:
            for layout in GRID_LAYOUTS:
                for seed in GRID_SEEDS:
                    yield dim, kappa, layout, seed


@dataclass(frozen=True)
class GridRun:
    dim: int
    kappa: float
    layout: str
    seed: int
    method: str
    n_iters: int
    stop_reason: str
    f_gap0: float
    report: object


@pytest.fixture(scope="session")
def grid_problems():
    """All grid instances, keyed by (dim, kappa, layout, seed)."""
    problems = {}
    for dim, kappa, layout, seed in grid_cells():
        spec = SpectrumSpec(dim=dim, ell=1.0, lip=kappa, layout=layout, seed=seed)
        obj, x_star, x0 = generate_with_start(spec)
        problems[(dim, kappa, layout, seed)] = (obj, x_star, x0)
    return problems


@pytest.fixture(scope="session")
def acceptance_grid(grid_problems):
    """Certified CG and AG runs over the whole grid, reports only."""
    records = []
    start = time.perf_counter()
    for key, (obj, _, x0) in grid_problems.items():
        dim, kappa, layout, seed = key
        f_gap0 = obj.f_gap(x0)
        stop = 1e-10 * f_gap0
        for method, cap in (("cg_classic", CG_MAX_ITERS), ("ag", AG_MAX_ITERS)):
            trace = run(obj, method, x0, cap, stop)
            report = certify(trace, obj)
            records.append(
                GridRun(
                    dim=dim,
                    kappa=kappa,
                    layout=layout,
                    seed=seed,
                    method=method,
                    n_iters=len(trace) - 1,
                    stop_reason=trace.stop_reason,
                    f_gap0=f_gap0,
                    report=report,
                )
            )
    elapsed = time.perf_counter() - start
    return SimpleNamespace(records=records, elapsed=elapsed)


@pytest.fixture(scope="session")
def dim2():
    """The hand-derived instance: A=diag(1,3), b=0, x0=(1,1)."""
    matrix = np.array([[1.0, 0.0], [0.0, 3.0]])
    obj = QuadraticObjective(matrix, np.zeros(2), 1.0, 3.0).with_minimizer(np.zeros(2))
    return SimpleNamespace(obj=obj, x0=np.array([1.0, 1.0]))


@pytest.fixture()
def tiny_problem():
    """A dim-8 instance small enough for per-test solves."""
    spec = SpectrumSpec(dim=8, ell=1.0, lip=50.0, layout="log_uniform", seed=11)
    obj, x_star, x0 = generate_with_start(spec)
    return SimpleNamespace(obj=obj, x_star=x_star, x0=x0, spec=spec)


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= tol, f"max abs error {err:g} exceeds {tol:g}"


