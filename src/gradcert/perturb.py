"""Certificate-based detection of inexact matrix-vector products.

Runs the library's own CG on a copy of a quadratic (_noisy) whose matvec,
the one product the solvers take, picks up a seeded relative perturbation,
and certifies the run while it goes: the first step whose certified
decrease or gap telescoping fails is the detection signal. The copy's
value and gaps, the monitor and the report stay exact (true A, true f,
true x*), modeling a tester who knows the system and is probing an
untrusted solver.

The chain and the telescoping are checked step by step, so a failure seen
on a prefix of the run stands whatever the run does next. The monitor
certifies the stored prefix at MONITOR_FIRST_CHECK stored iterates and at
every MONITOR_CHECK_GROWTH-fold length after, and ends the run at the first
prefix that fails; that certify() report is the verdict. A run it does not
end is certified whole once it stops, so exact runs read as before.

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
them, every tenth step and at the last.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import QuadraticObjective, _positive
from .potential import certify
from .rng import SplitMix64, _seed_word, _size, substream_gaussians, substream_seed
from .solvers import STOP_GAP_REL, Trace, _check_run_args, _run_cg


@dataclass(frozen=True)
class NoiseModel:
    """Relative perturbation applied to each matvec; magnitude 0 disables it.

    magnitude is a finite number >= 0, stored as a float, -0.0 as 0.0; seed
    is an integer in [0, 2**64), the seeds SplitMix64 keeps apart. Anything
    else, a bool or a string included, raises ValueError.
    """

    magnitude: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "magnitude", _positive(self.magnitude, "magnitude", zero_ok=True))
        object.__setattr__(self, "seed", _seed_word(self.seed))


# Calls per drawn block of directions, and blocks kept. Measured at dim 100
# (CHANGES.md): the draw cost per call is flat from blocks of 16 up, and a
# larger block only draws more unused directions at the end of a run; 32
# blocks hold every block of a 600-step run for about three seeds.
DIRECTION_BLOCK = 64
DIRECTION_CACHE_BLOCKS = 32


# The monitor's schedule: it certifies the stored prefix at 8, 32, 128, ...
# stored iterates. certify() costs about 100 us even on a few rows, so a
# denser schedule costs runs that are never flagged more than it saves on
# the others. Growing by 4 certifies at most 4/3 of a run's rows in all,
# and a violation at step k (iterates k and k + 1) ends the run by
# max(8, 4 (k + 1)) stored iterates.
MONITOR_FIRST_CHECK = 8
MONITOR_CHECK_GROWTH = 4


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
    norms = np.array([math.sqrt(row.dot(row)) for row in g])
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
    call_index is an integer >= 0 (rng._size, the RNG's rule for a
    substream index) at every magnitude, 0 included.
    """
    call_index = _size(call_index, "call_index")
    out = obj.matrix @ np.asarray(p, dtype=float)
    if noise.magnitude == 0.0:
        return out
    block, row = divmod(call_index, DIRECTION_BLOCK)
    u = _directions(noise.seed, block, out.shape[0])[row]
    return out + noise.magnitude * math.sqrt(out.dot(out)) * u


def _noisy(obj: QuadraticObjective, noise: NoiseModel) -> QuadraticObjective:
    """Copy of obj whose matvec is noisy_matvec, one call index per product.

    Only the product changes: the copy's value, gaps and audits read the
    exact matrix. noisy_matvec is looked up at each call, so a wrapper
    installed on this module sees every product.
    """
    calls = itertools.count()
    noisy = copy.copy(obj)
    noisy.matvec = lambda v: noisy_matvec(obj, noise, v, next(calls))
    return noisy


def _max_drift(trace, obj) -> float:
    """Largest ||r_k - (b - A x_k)|| over k = 10, 20, ... and the last stored k.

    Under noise the recurred residual strays from the true one; the audit
    replays the true residual from the stored iterates every tenth step and
    at the one where the run stopped. r_0 is exact, so a run of one iterate
    reads 0.
    """
    ks = sorted({*range(10, len(trace), 10), len(trace) - 1})
    drifts = (trace.rs[k] - (obj.rhs - obj.matrix @ trace.xs[k]) for k in ks)
    return max(math.sqrt(v.dot(v)) for v in drifts)


class _Monitor:
    """_run_cg observer: certifies the stored prefix on the module's schedule.

    It stops the run at the first prefix whose certificate fails and keeps
    that report, so the verdict comes from certify() alone.
    """

    def __init__(self, obj):
        self.obj = obj
        self.next_check = MONITOR_FIRST_CHECK
        self.report = None

    def __call__(self, xs, alphas, prev_sqs) -> bool:
        if len(xs) < self.next_check:
            return False
        self.next_check *= MONITOR_CHECK_GROWTH
        # certify() reads no recurred residuals, so the prefix carries none.
        prefix = Trace(
            method="cg_classic",
            xs=np.array(xs),
            alphas=np.array(alphas),
            prev_res_sqs=np.array(prev_sqs),
        )
        report = certify(prefix, self.obj)
        if report.first_violation is None:
            return False
        self.report = report
        return True


@dataclass
class DetectionReport:
    """Outcome of one monitored noisy run.

    first_violation is the certificate's first failing step, the chain's or
    the gap telescoping's, whichever comes first, else the step where the
    run broke down (stop_reason "not_positive_definite" or "diverged", which
    exact CG reaches only from an x0 near the float64 limit), else None,
    which is the one reading of whether the noise was detected. A run the
    monitor ended has stop_reason "detected", and every field covers the
    run up to that stop: iterations_run is the steps taken, one noisy
    product each, at most max(7, 4 first_violation + 3) (module
    docstring). psis is the true potential sequence (evaluated with the
    exact objective, not the noisy recurrence), the one per-step array of
    the certificate that the report keeps. max_drift is the absolute
    distance between the recurred and the true residual at its worst tenth
    step or at the last step (0 on a run of no steps).
    """

    eta: float
    seed: int
    first_violation: int | None
    iterations_run: int
    psis: np.ndarray
    stop_reason: str
    max_drift: float


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
    iterate whose exact gap is at or below STOP_GAP_REL (1e-12) of the
    starting gap (run's one stop rule, where an exact run stops); the
    monitor's first failing certificate ("detected", on the schedule of
    the module docstring); the recurred residual reaching CG's convergence
    floor; or a noisy p'A p that is not positive ("not_positive_definite")
    or not finite ("diverged"). Noise visible to the certificate usually
    ends the run with "detected" within a few times the violation's step
    count. Undetected noisy runs plateau far above the gap threshold while
    the reorthogonalized recurrence drives its own residual to the floor,
    so they end with "converged" within a few times dim steps. A run the
    monitor ended reports the certificate of its last check; any other is
    certified whole. Psi and the certificate are always evaluated against
    the exact objective; a breakdown counts as a violation
    (DetectionReport).
    """
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("inexactness detection applies to quadratic objectives")
    monitored = obj.with_minimizer(x_star)
    x0 = _check_run_args(monitored, x0, max_iters)

    # CG runs on the noisy copy; the monitor and the report keep the exact
    # objective. The monitor looks certify up at each call, so a wrapper
    # installed on this module sees every certificate.
    monitor = _Monitor(monitored)
    trace = _run_cg(
        _noisy(monitored, noise),
        "cg_classic",
        x0,
        max_iters,
        STOP_GAP_REL * monitored.f_gap(x0),
        observe=monitor,
    )
    report = certify(trace, monitored) if monitor.report is None else monitor.report
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

    etas and seeds may be any iterables, read once each. Every pair is made
    a NoiseModel before the first run, so an eta or a seed that NoiseModel
    refuses raises ValueError with no run made; pairs equal as NoiseModels
    (-0.0 and 0.0, say) run once. The runs go seed by
    seed, so each seed's noise directions are drawn once and served from
    the cache to all its magnitudes.
    """
    noises = {NoiseModel(eta, seed) for seed, eta in itertools.product(seeds, etas)}
    runs = sorted(noises, key=lambda n: (n.seed, n.magnitude))
    out = [detect_inexactness(obj, x_star, noise, max_iters, x0=x0) for noise in runs]
    return sorted(out, key=lambda r: (r.eta, r.seed))
