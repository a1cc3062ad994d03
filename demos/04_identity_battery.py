"""Exercise the CG exactness identities, then break them on purpose."""

import numpy as np

from gradcert import SpectrumSpec, generate_with_start, hs_identity_battery, run

spec = SpectrumSpec(dim=25, ell=1.0, lip=400.0, layout="log_uniform", seed=9)
obj, _, x0 = generate_with_start(spec)
trace = run(obj, "cg_classic", x0, 4_000, 1e-10 * obj.f_gap(x0))

report = hs_identity_battery(trace, obj)
print(f"clean run: {len(trace) - 1} iterations, battery ok={report.ok}")
# Each row of the table keeps its normalized residual per step and its tolerance.
print("worst normalized residual per identity, against its tolerance:")
for name, value in report.max_violations.items():
    print(f"  {name:15s} {value:.3e}  (tol {report.checks[name].tol:g})")

# The rho_alignment row checks that CG's rho_k is the weight minimizing ||w_k||.
print(f"rho optimal at every step (w_k . s_k = 0): {report.first_failures['rho_alignment'] is None}")

# Nudge one iterate by 0.1%; the displacements s_k and s_{k+1} follow from
# the iterates, so every identity that touches step k now disagrees with the
# recurrence scalars.
k = len(trace) // 2
trace.xs[k] *= 1.001
poisoned = hs_identity_battery(trace, obj)
print(f"\nafter a 0.1% nudge of x_{k}: battery ok={poisoned.ok}, "
      f"{poisoned.failed_check} fails first, at step {poisoned.first_violation}")
for name, first in poisoned.first_failures.items():
    if first is not None:
        print(f"  {name:15s} first failure at step {first} (residual {poisoned.max_violations[name]:.2e})")
