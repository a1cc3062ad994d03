"""The public API and the module list are pinned: adding or removing a
name or a module is a visible change."""

import pkgutil

import gradcert

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

PUBLIC_NAMES = [
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


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(gradcert.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gradcert, name) is not None, name


def test_module_list_is_pinned():
    assert len(MODULES) == 12
    assert sorted(m.name for m in pkgutil.iter_modules(gradcert.__path__)) == MODULES
