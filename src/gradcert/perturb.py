"""Certificate-based detection of inexact matrix-vector products.

Wraps a quadratic's operator so every product CG consumes picks up a
seeded relative perturbation, then certifies the run: the first step whose
certified decrease or gap telescoping fails is the detection signal. The
monitor itself stays exact (true A, true f, true x*), modeling a tester who
knows the system and is probing an untrusted solver.

Noise is a direction drawn uniformly on the unit sphere, scaled by
eta * ||A p||. Each product's draw is keyed by (seed, call index) through
the substream derivation in the rng module, so sweeps are reproducible
call by call and eta = 0 is a bitwise pass-through. Directions are drawn
a block of DIRECTION_BLOCK calls at a time and the last
DIRECTION_CACHE_BLOCKS blocks are cached, at most
DIRECTION_CACHE_BLOCKS * DIRECTION_BLOCK * dim * 8 bytes. A direction
depends on the seed, the call index and dim but not on eta, so every
magnitude of a sweep reuses the same blocks.

The run itself stores only its iterates and recurred residuals; the report's
drift between the recurred and the true residual is computed afterwards from
them, every tenth step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .objective import QuadraticObjective
from .potential import CertificateReport, certify
from .rng import SplitMix64, substream_gaussians, substream_seed
from .solvers import _run_cg


@dataclass(frozen=True)
class NoiseModel:
    """Relative perturbation applied to each matvec; magnitude 0 disables it."""

    magnitude: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.magnitude < np.inf:
            raise ValueError(f"magnitude must be finite and >= 0, got {self.magnitude}")


# Calls per drawn block of directions, and blocks kept. Measured at dim 100
# (CHANGES.md): the draw cost per call is flat from blocks of 16 up, and a
# larger block only draws more unused directions at the end of a run; 32
# blocks hold every block of a 600-step run for about three seeds.
DIRECTION_BLOCK = 64
DIRECTION_CACHE_BLOCKS = 32


@functools.lru_cache(maxsize=DIRECTION_CACHE_BLOCKS)
def _directions(seed: int, block: int, dim: int) -> np.ndarray:
    """Read-only unit directions of calls block*B .. block*B + B-1 (B rows).

    Row j equals ``SplitMix64(substream_seed(seed, block*B + j)).unit_vector(dim)``
    bit for bit: each row is normalised by its own 1-D norm, and a row too
    short to normalise is redrawn from its own stream, as ``unit_vector``
    does.
    """
    first = block * DIRECTION_BLOCK
    g = substream_gaussians(seed, first, DIRECTION_BLOCK, dim)
    norms = np.array([float(np.linalg.norm(row)) for row in g])
    for j in np.flatnonzero(~(norms > 1e-300)).tolist():
        stream = SplitMix64(substream_seed(seed, first + j))
        stream.gaussian_vector(dim)  # the draw rejected above
        g[j] = stream.unit_vector(dim)
        norms[j] = 1.0
    g /= norms[:, None]
    g.flags.writeable = False
    return g


def noisy_matvec(obj: QuadraticObjective, noise: NoiseModel, p, call_index: int = 0) -> np.ndarray:
    """A p plus eta ||A p|| times a seeded unit direction.

    Deterministic per (noise.seed, call_index). magnitude 0 returns A p
    bitwise unchanged; p = 0 returns 0 (the noise scales with ||A p||).
    The direction is row call_index % DIRECTION_BLOCK of the block
    call_index // DIRECTION_BLOCK, which is drawn once for all its calls
    and kept among the last DIRECTION_CACHE_BLOCKS blocks drawn (at most
    DIRECTION_CACHE_BLOCKS * DIRECTION_BLOCK * dim * 8 bytes); it equals
    ``SplitMix64(substream_seed(noise.seed, call_index)).unit_vector(dim)``.
    """
    out = obj.matrix @ np.asarray(p, dtype=float)
    if noise.magnitude == 0.0:
        return out
    block, row = divmod(call_index, DIRECTION_BLOCK)
    u = _directions(noise.seed, block, out.shape[0])[row]
    return out + noise.magnitude * float(np.linalg.norm(out)) * u


def _max_drift(trace, obj) -> float:
    """Largest ||r_k - (b - A x_k)|| over k = 10, 20, ...; 0 on shorter runs.

    Under noise the recurred residual strays from the true one; the audit
    replays the true residual from the stored iterates every tenth step.
    """
    drifts = (
        float(np.linalg.norm(r - (obj.rhs - obj.matrix @ x)))
        for r, x in zip(trace.rs[10::10], trace.xs[10::10])
    )
    return max(drifts, default=0.0)


@dataclass
class DetectionReport:
    """Outcome of one monitored noisy run.

    first_violation is the certificate's first failing step, the chain's or
    the gap telescoping's, whichever comes first, else the step where the
    run broke down (stop_reason "not_positive_definite" or "diverged", which
    exact CG reaches only from an x0 near the float64 limit), else None;
    detected mirrors it as a bool. psis is the true potential sequence
    (evaluated with the exact objective, not the noisy recurrence).
    max_drift is the absolute distance between the recurred and the true
    residual at its worst tenth step (0 on runs shorter than 10 steps).
    certificate carries the full per-step record.
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
    x_star,
    noise: NoiseModel,
    max_iters: int,
    *,
    x0,
) -> DetectionReport:
    """Run classic CG under the noise model and certify every step.

    Starts from x0; x_star is the exact minimizer the monitor measures
    against. The run ends at the first of: max_iters steps; the first
    iterate whose exact gap is at or below 1e-12 of the starting gap (run's
    one stop rule, where an exact run stops); the recurred residual
    reaching CG's convergence floor; or a noisy p'A p that is not positive
    ("not_positive_definite") or not finite ("diverged"). A noisy run
    plateaus far above the gap threshold, but the reorthogonalized
    recurrence still drives its own residual to the floor, so noisy runs
    usually end with stop_reason "converged" within a few times dim steps
    while the true error has stalled. Psi and the certificate are always
    evaluated against the exact objective; a breakdown counts as a
    violation (DetectionReport).
    """
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("inexactness detection applies to quadratic objectives")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    monitored = obj.with_minimizer(x_star)
    x0 = monitored._check_vector(x0, "x0")

    # One call index per product. The lambda looks noisy_matvec up at each
    # call, so a wrapper installed on this module sees every product.
    calls = itertools.count()
    trace = _run_cg(
        monitored,
        "cg_classic",
        x0,
        max_iters,
        1e-12 * monitored.f_gap(x0),
        matvec=lambda p: noisy_matvec(monitored, noise, p, next(calls)),
    )
    report = certify(trace, monitored)
    first_violation = report.first_violation
    if first_violation is None and trace.stop_reason in ("not_positive_definite", "diverged"):
        first_violation = len(trace) - 1  # the noise broke the run down
    return DetectionReport(
        eta=noise.magnitude,
        seed=noise.seed,
        first_violation=first_violation,
        iterations_run=len(trace) - 1,
        psis=report.psis,
        stop_reason=trace.stop_reason,
        max_drift=_max_drift(trace, monitored),
        certificate=report,
    )


def sweep(
    obj: QuadraticObjective,
    x_star,
    etas,
    seeds,
    max_iters: int,
    *,
    x0,
) -> list:
    """Detection reports for every (eta, seed) pair, ordered by (eta, seed).

    The runs go seed by seed, so each seed's noise directions are drawn
    once and served from the cache to all its magnitudes.
    """
    out = []
    for seed in sorted(set(int(s) for s in seeds)):
        for eta in sorted(set(float(e) for e in etas)):
            noise = NoiseModel(magnitude=eta, seed=seed)
            out.append(detect_inexactness(obj, x_star, noise, max_iters, x0=x0))
    return sorted(out, key=lambda r: (r.eta, r.seed))
