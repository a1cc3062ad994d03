"""Generate conditioned test problems and round-trip them through JSON.

Every instance is reproducible from (dim, ell, lip, layout, seed) alone;
the JSON file carries the materialized matrix plus the reference minimizer
so that a loaded problem certifies runs without re-solving anything.
"""

import os
import tempfile

import numpy as np

from gradcert import (
    SpectrumSpec,
    generate_with_start,
    load_problem,
    make_logistic_problem,
    make_quadratic_problem,
)

print("== quadratic instances ==")
for layout in ("log_uniform", "two_cluster"):
    spec = SpectrumSpec(dim=40, ell=1.0, lip=500.0, layout=layout, seed=3)
    obj, _, x0 = generate_with_start(spec)
    eigs = np.linalg.eigvalsh(obj.matrix)
    lo, hi = eigs[0], eigs[-1]
    print(
        f"{layout:12s} dim={spec.dim}  eig range [{lo:.6f}, {hi:.3f}]  "
        f"kappa={hi / lo:.1f}  f_gap(x0)={obj.f_gap(x0):.3f}"
    )

print("\n== JSON round trip ==")
problem = make_quadratic_problem(SpectrumSpec(dim=12, ell=1.0, lip=50.0, layout="log_uniform", seed=7))
with tempfile.TemporaryDirectory(prefix="gradcert_demo_") as out_dir:
    path = os.path.join(out_dir, "quad12.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(problem.to_json() + "\n")
    loaded = load_problem(path)
    print(f"wrote {path} ({os.path.getsize(path)} bytes)")
obj = loaded.objective
print(f"matrices byte-identical after reload: {np.array_equal(problem.objective.matrix, obj.matrix)}")
# the loader refuses a stored minimizer whose gradient is not tiny, so an
# attached obj.minimizer is always trustworthy
g_rel = np.linalg.norm(obj.grad(obj.minimizer)) / np.linalg.norm(obj.grad(loaded.x0))
print(f"minimizer attached, |grad(x*)|/|grad(x0)| = {g_rel:.2e}")

print("\n== logistic-ridge instance (non-quadratic path) ==")
logi = make_logistic_problem(8, 40, 0.5, seed=1)
lobj = logi.objective
print(f"dim={lobj.dim}  ell={lobj.ell}  L={lobj.lip:.3f}  kappa={lobj.lip / lobj.ell:.1f}")
print(f"f(x*)={lobj.value(lobj.minimizer):.6f}  f_gap(x0)={lobj.f_gap(logi.x0):.3f}")
