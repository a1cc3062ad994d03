"""Certified accelerated gradient and conjugate gradient solvers.

The package runs two classical first-order methods on strongly convex
problems through one two-parameter update rule, tracks a distance-plus-gap
potential along the iterates, and certifies per step that the potential
contracts at the rate the theory prescribes.  Because the certificate is
checked (not trusted), it doubles as a cheap runtime detector for silent
corruption of the matrix-vector products.

Typical flow: build or load a problem (`problems`), run a solver
(`solvers.run`), certify the trace (`potential.certify`), and optionally
stress it (`potential.hs_identity_battery`, `perturb.sweep`).
"""

from .generate import LAYOUTS, SpectrumSpec, generate_with_start
from .objective import QuadraticObjective
from .perturb import NoiseModel, detect_inexactness, noisy_matvec, sweep
from .potential import certify, hs_identity_battery
from .problems import (
    ProblemSpec,
    load_problem,
    make_logistic_problem,
    make_quadratic_problem,
)
from .rng import SplitMix64, substream_seed
from .solvers import run
from .traces import read_trace_csv, write_trace_csv

__version__ = "0.1.0"

__all__ = [
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
