"""The public API is pinned: adding or removing a name is a visible change."""

import gradcert

PUBLIC_NAMES = [
    "CertificateReport",
    "DegenerateRatioError",
    "DetectionReport",
    "EigenEstimateError",
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
    "conjugacy_drift",
    "contraction_constant",
    "default_cert_tolerance",
    "detect_inexactness",
    "extreme_eigenvalues",
    "generate_with_start",
    "hs_identity_battery",
    "load_problem",
    "make_logistic_problem",
    "make_quadratic_problem",
    "momentum_coefficient",
    "newton_reference_minimizer",
    "noisy_matvec",
    "read_trace_csv",
    "rho_optimality_check",
    "run",
    "substream_seed",
    "sweep",
    "write_trace_csv",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(gradcert.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gradcert, name) is not None, name
