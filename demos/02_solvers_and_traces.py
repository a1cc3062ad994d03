"""Run the four solver variants on one instance and inspect a trace CSV."""

import math
import os
import tempfile

from gradcert import SpectrumSpec, certify, generate_with_start, read_trace_csv, run, write_trace_csv

spec = SpectrumSpec(dim=30, ell=1.0, lip=300.0, layout="log_uniform", seed=5)
obj, _, x0 = generate_with_start(spec)
stop = 1e-10 * obj.f_gap(x0)

print(f"dim={spec.dim} kappa={spec.lip / spec.ell:g}, stopping at f_gap <= 1e-10 f_gap(x0)\n")
traces = {}
for method in ("cg_classic", "cg_unified", "ag", "ag_unified"):
    trace = run(obj, method, x0, 40_000, stop)
    traces[method] = trace
    print(f"{method:12s} {len(trace) - 1:5d} iterations  stop_reason={trace.stop_reason}")

# the two CG variants and the two AG variants walk the same path
import numpy as np

n = min(len(traces["cg_classic"]), len(traces["cg_unified"]))
dev = np.max(np.linalg.norm(traces["cg_classic"].xs[:n] - traces["cg_unified"].xs[:n], axis=1))
print(f"\nmax |x_k(cg_classic) - x_k(cg_unified)| = {dev:.2e}")
dev = np.max(np.linalg.norm(traces["ag"].xs - traces["ag_unified"].xs, axis=1))
print(f"max |x_k(ag)         - x_k(ag_unified)| = {dev:.2e}")

trace = traces["cg_classic"]
with tempfile.TemporaryDirectory(prefix="gradcert_demo_") as out_dir:
    out = os.path.join(out_dir, "cg.csv")
    write_trace_csv(out, trace, obj, certify(trace, obj))
    cols = read_trace_csv(out)
    print(f"\nwrote {out}")
print("columns:", ", ".join(cols))

# Row alignment: alpha/beta on row k produced x_k (blank at k=0); the
# schedule triple theta/nu/pi is what leaves x_k (blank on the final row).
# The read-back is float arrays, nan for a blank cell and 1.0/0.0 for cert_pass.
def cell(name, k):
    v = cols[name][k]
    if np.isnan(v):
        return "."
    return ("false", "true")[int(v)] if name == "cert_pass" else f"{v:.4g}"


print("\n  k   f_gap        alpha      beta       pi         cert_pass")
for k in (0, 1, 2, len(cols["k"]) - 1):
    print(
        f"{cols['k'][k]:3d}   {cols['f_gap'][k]:<11.4g}  {cell('alpha', k):9s}  "
        f"{cell('beta', k):9s}  {cell('pi', k):9s}  {cell('cert_pass', k)}"
    )
