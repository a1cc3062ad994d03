"""Certificates as tamper detectors: inexact matvecs break the chain early.

A CG run whose matrix-vector products carry relative noise eta still looks
healthy from the inside: the recurred residual keeps shrinking long after
the true error has stopped improving. Watching only that residual, the run
appears to converge. The potential certificate, evaluated against the exact
objective, flags the very first step whose contraction falls short or whose
gap drop disagrees with the run's own step size. The monitor checks the run
while it goes and ends it once a check fails; the unmonitored run below
shows what the library's CG, left to itself, does after that. Noise enters
through the objective: a copy whose matvec, the one product every solver
takes, is the noisy one.
"""

import copy
import itertools
import math

import numpy as np

from gradcert import (
    NoiseModel,
    SpectrumSpec,
    certify,
    detect_inexactness,
    generate_with_start,
    noisy_matvec,
    run,
    sweep,
)

spec = SpectrumSpec(dim=60, ell=1.0, lip=2000.0, layout="log_uniform", seed=2)
obj, x_star, x0 = generate_with_start(spec)

print("== what the solver sees vs what is true (eta = 1e-3) ==")
noise = NoiseModel(magnitude=1e-3, seed=0)
calls = itertools.count()
noisy = copy.copy(obj)
noisy.matvec = lambda p: noisy_matvec(obj, noise, p, next(calls))
trace = run(noisy, "cg_classic", x0, 60, -math.inf)
# The audit measures the noisy run's iterates against the exact objective.
audit = certify(trace, obj)
print("  k   recurred |r|   true |b - A x|")
for k in range(10, len(trace), 10):
    print(f"{k:4d}   {np.linalg.norm(trace.rs[k]):12.3e}   {audit.grad_norms[k]:12.3e}")
print("the recurred residual underestimates the truth once noise accumulates\n")

print("== certified detection across noise levels ==")
print("eta        seed 0  seed 1  seed 2   (first certificate violation)")
for eta in (0.0, 1e-8, 1e-4, 1e-2):
    reports = sweep(obj, x_star, [eta], range(3), 400, x0=x0)
    cells = "  ".join(f"{r.first_violation!s:>6s}" for r in reports)
    print(f"{eta:<9g}  {cells}")

rep = detect_inexactness(obj, x_star, NoiseModel(1e-2, seed=0), 400, x0=x0)
print(
    f"\nat eta=1e-2 the certificate fails at step {rep.first_violation}; the monitor "
    f"checks the run as it goes and ended it after {rep.iterations_run} of at most 400 "
    f"steps (stop: {rep.stop_reason!r}), long before the damage is obvious."
)
print(
    f"by that stop the recurred residual had already strayed by {rep.max_drift:.2e} "
    f"({rep.max_drift / audit.grad_norms[0]:.1e} of |r_0|) from the true one"
)
