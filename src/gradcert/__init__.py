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

from .errors import (
    GradcertError,
    MissingGroundTruthError,
    NotPositiveDefiniteError,
)
from .generate import (
    LAYOUTS,
    GroundTruth,
    SpectrumSpec,
    generate_with_start,
)
from .objective import (
    LogisticRidgeObjective,
    Objective,
    QuadraticObjective,
    newton_reference_minimizer,
)
from .perturb import DetectionReport, NoiseModel, detect_inexactness, noisy_matvec, sweep
from .potential import (
    CertificateReport,
    IdentityReport,
    certify,
    contraction_constant,
    default_cert_tolerance,
    hs_identity_battery,
)
from .problems import (
    ProblemSpec,
    load_problem,
    make_logistic_problem,
    make_quadratic_problem,
)
from .rng import SplitMix64, substream_seed
from .solvers import (
    METHODS,
    Trace,
    momentum_coefficient,
    run,
)
from .traces import TRACE_HEADER, read_trace_csv, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "DetectionReport",
    "GradcertError",
    "GroundTruth",
    "IdentityReport",
    "LAYOUTS",
    "LogisticRidgeObjective",
    "METHODS",
    "MissingGroundTruthError",
    "NoiseModel",
    "NotPositiveDefiniteError",
    "Objective",
    "ProblemSpec",
    "QuadraticObjective",
    "SpectrumSpec",
    "SplitMix64",
    "TRACE_HEADER",
    "Trace",
    "certify",
    "contraction_constant",
    "default_cert_tolerance",
    "detect_inexactness",
    "generate_with_start",
    "hs_identity_battery",
    "load_problem",
    "make_logistic_problem",
    "make_quadratic_problem",
    "momentum_coefficient",
    "newton_reference_minimizer",
    "noisy_matvec",
    "read_trace_csv",
    "run",
    "substream_seed",
    "sweep",
    "write_trace_csv",
]
