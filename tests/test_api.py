"""The public API and the module list are pinned: adding or removing a
name or a module is a visible change."""

import functools
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradcert

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = [
    "__main__",
    "cli",
    "errors",
    "generate",
    "objective",
    "perturb",
    "potential",
    "problems",
    "rng",
    "serialize",
    "solvers",
    "traces",
]

# What the benchmark reaches as gradcert.<name>, then what the demos import.
PUBLIC_NAMES = [
    "LAYOUTS",
    "NoiseModel",
    "ProblemSpec",
    "QuadraticObjective",
    "SpectrumSpec",
    "SplitMix64",
    "certify",
    "detect_inexactness",
    "generate_with_start",
    "hs_identity_battery",
    "load_problem",
    "make_logistic_problem",
    "make_quadratic_problem",
    "noisy_matvec",
    "read_trace_csv",
    "run",
    "substream_seed",
    "sweep",
    "write_trace_csv",
]

# (module, attribute path) pairs that the benchmark's tracer wraps at call
# time; a missing one only shows there as an untraced layer.
BENCHMARK_HOOKS = [
    ("gradcert", "SplitMix64.gaussian_vector"),
    ("gradcert", "generate_with_start"),
    ("gradcert", "QuadraticObjective.__init__"),
    ("gradcert", "QuadraticObjective.grad"),
    ("gradcert", "run"),
    ("gradcert", "certify"),
    ("gradcert", "detect_inexactness"),
    ("gradcert", "ProblemSpec.save"),
    ("gradcert.problems", "generate_with_start"),
    ("gradcert.generate", "generate_arrays"),
    ("gradcert.generate", "reference_minimizer"),
    ("gradcert.perturb", "_run_cg"),
    ("gradcert.perturb", "certify"),
    ("gradcert.perturb", "detect_inexactness"),
    ("gradcert.perturb", "noisy_matvec"),
    ("gradcert.cli", "run"),
    ("gradcert.cli", "certify"),
    ("gradcert.cli", "hs_identity_battery"),
    ("gradcert.cli", "write_trace_csv"),
    ("gradcert.cli", "read_trace_csv"),
    ("gradcert.cli", "load_problem"),
    ("gradcert.cli", "main"),
]


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 19
    assert sorted(gradcert.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gradcert, name) is not None, name


def test_module_list_is_pinned():
    assert len(MODULES) == 12
    assert sorted(m.name for m in pkgutil.iter_modules(gradcert.__path__)) == MODULES


def test_benchmark_call_contract():
    # the calls the benchmark's workloads make, in the form they make them
    spec = gradcert.SpectrumSpec(dim=8, ell=1.0, lip=50.0, layout=gradcert.LAYOUTS[0], seed=3)
    obj, x_star, x0 = gradcert.generate_with_start(spec)
    assert np.array_equal(x_star, obj.minimizer)
    noise = gradcert.NoiseModel(magnitude=1e-3, seed=gradcert.substream_seed(3, 0))
    report = gradcert.detect_inexactness(obj, x_star, noise, 20, x0=x0)
    assert report.iterations_run >= 1
    trace = gradcert.run(obj, "ag", x0, 50, -math.inf, record_transients=False)
    assert len(gradcert.certify(trace, obj).psis) == len(trace)
    for module, path in BENCHMARK_HOOKS:
        owner = importlib.import_module(module)
        assert functools.reduce(getattr, path.split("."), owner) is not None, (module, path)


@pytest.mark.parametrize(
    "argv", [["-c", "import gradcert"], ["-m", "gradcert", "--help"]], ids=["import", "help"]
)
def test_runtime_loads_numpy_alone(argv):
    # numpy is the one dependency at run time; scipy is a test reference
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: ... | module" line per import
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"numpy", "gradcert.objective", "gradcert.solvers"} <= loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
    # the trace CSV is split by str methods, not the csv module
    assert {"csv", "_csv"} & loaded == set()


# Each input rule's message and the one module that holds it: a count, a
# finite array and a bound in objective, a seed and a draw size in rng.
_RULE_HOMES = {
    "must be an integer >= 1": "objective.py",
    "has non-finite entries": "objective.py",
    "must be a finite number": "objective.py",
    "must be in [0, 2**64)": "rng.py",
    "must be an integer >= 0": "rng.py",
}


@pytest.mark.parametrize("message", list(_RULE_HOMES))
def test_each_input_rule_has_one_home(message):
    # each rule is checked by one function; a second copy of a rule would
    # bring its message back
    homes = [
        path.name
        for path in sorted((SRC / "gradcert").glob("*.py"))
        if message in path.read_text(encoding="utf-8")
    ]
    assert homes == [_RULE_HOMES[message]]


# The unit roundoff's spellings. rng.py's 2**-53 is the resolution of a
# uniform draw, part of the stream's contract, not a roundoff.
_ROUNDOFF = re.compile(r"2(\.0)?\s*\*\*\s*-5[23]|finfo|float_info\.epsilon")


def test_the_rounding_model_has_one_home():
    # every tolerance reads u from objective's rounding model; a second
    # spelling would let two tolerances drift apart
    spelled = [
        path.name
        for path in sorted((SRC / "gradcert").glob("*.py"))
        if _ROUNDOFF.search(path.read_text(encoding="utf-8"))
    ]
    assert spelled == ["objective.py", "rng.py"]
