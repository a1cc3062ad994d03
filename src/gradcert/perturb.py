"""Certificate-based detection of inexact matrix-vector products.

Wraps a quadratic's operator so every product CG consumes picks up a
seeded relative perturbation, then watches the potential chain: the first
step whose certified decrease fails is the detection signal. The monitor
itself stays exact (true A, true f, true x*), modeling a tester who knows
the system and is probing an untrusted solver.

Noise is a direction drawn uniformly on the unit sphere, scaled by
eta * ||A p||. Each product's draw is keyed by (seed, call index) through
the substream derivation in the rng module, so sweeps are reproducible
call by call and eta = 0 is a bitwise pass-through.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .objective import QuadraticObjective
from .potential import CertificateReport, certify
from .rng import SplitMix64, substream_seed
from .solvers import _run_cg


@dataclass(frozen=True)
class NoiseModel:
    """Relative perturbation applied to each matvec; magnitude 0 disables it."""

    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")


def noisy_matvec(obj: QuadraticObjective, noise: NoiseModel, p, call_index: int = 0) -> np.ndarray:
    """A p plus eta ||A p|| times a seeded unit direction.

    Deterministic per (noise.seed, call_index). magnitude 0 returns A p
    bitwise unchanged; p = 0 returns 0 (the noise scales with ||A p||).
    """
    out = obj.matrix @ np.asarray(p, dtype=float)
    if noise.magnitude == 0.0:
        return out
    stream = SplitMix64(substream_seed(noise.seed, call_index))
    u = stream.unit_vector(out.shape[0])
    return out + noise.magnitude * float(np.linalg.norm(out)) * u


@dataclass
class DetectionReport:
    """Outcome of one monitored noisy run.

    first_violation is the first certificate step that failed, or None when
    the whole chain held; detected mirrors it as a bool. psis is the true
    potential sequence (evaluated with the exact objective, not the noisy
    recurrence). certificate carries the full per-step record.
    """

    eta: float
    seed: int
    first_violation: int | None
    iterations_run: int
    psis: np.ndarray
    stop_reason: str
    max_drift: float
    certificate: CertificateReport = field(repr=False)

    @property
    def detected(self) -> bool:
        return self.first_violation is not None


def detect_inexactness(
    obj: QuadraticObjective,
    truth,
    noise: NoiseModel,
    max_iters: int,
    *,
    x0,
) -> DetectionReport:
    """Run classic CG under the noise model and certify every step.

    Starts from x0. The run ends at the first of:
    max_iters steps; the exact gap dropping to 1e-12 of the starting gap
    (an exact run stops there); or the recurred residual reaching CG's
    convergence floor. A noisy run plateaus far
    above the gap threshold, but the reorthogonalized recurrence still
    drives its own residual to the floor, so noisy runs usually end with
    stop_reason "converged" within a few times dim steps while the true
    error has stalled. Psi and the certificate are always evaluated
    against the exact objective.
    """
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("inexactness detection applies to quadratic objectives")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    monitored = obj.with_minimizer(truth.x_star, truth.f_star)
    x0 = monitored._check_vector(x0, "x0")

    threshold = 1e-12 * monitored.f_gap(x0)

    def stopped(x, r=None):
        # Exact gap on purpose: the recurred residual drifts under noise and
        # can cross zero, which would fake convergence and end the run
        # before the chain gets a chance to break. CG records no gap.
        return monitored.f_gap(x) <= threshold, None

    # One call index per product. The lambda looks noisy_matvec up at each
    # call, so a wrapper installed on this module sees every product.
    calls = itertools.count()
    trace = _run_cg(
        monitored,
        "cg_classic",
        x0,
        max_iters,
        stopped,
        matvec=lambda p: noisy_matvec(monitored, noise, p, next(calls)),
    )
    report = certify(trace, monitored)
    max_drift = max((d for _, d in trace.drift_checks), default=0.0)
    return DetectionReport(
        eta=noise.magnitude,
        seed=noise.seed,
        first_violation=report.first_violation,
        iterations_run=len(trace) - 1,
        psis=report.psis,
        stop_reason=trace.stop_reason,
        max_drift=max_drift,
        certificate=report,
    )


def sweep(
    obj: QuadraticObjective,
    truth,
    etas,
    seeds,
    max_iters: int,
    *,
    x0,
) -> list:
    """Detection reports for every (eta, seed) pair, ordered by (eta, seed)."""
    out = []
    for eta in sorted(set(float(e) for e in etas)):
        for seed in sorted(set(int(s) for s in seeds)):
            noise = NoiseModel(magnitude=eta, seed=seed)
            out.append(detect_inexactness(obj, truth, noise, max_iters, x0=x0))
    return out
