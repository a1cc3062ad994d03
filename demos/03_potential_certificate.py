"""Certify the per-step potential contraction for CG and AG.

The potential psi_k = ||x_k + rho_k s_k - x*||^2 + (2/l)(f(x_k) - f*)
contracts by a provable constant C every step. The certificate checks
C psi_{k+1} <= psi_k at every recorded step (psi_1 <= psi_0 at k=0) and
also the two closed-form envelopes on f_gap. None of it uses line
searches or luck: a clean run must pass, and a tampered one cannot.
"""

from gradcert import SpectrumSpec, certify, generate_with_start, run

spec = SpectrumSpec(dim=40, ell=1.0, lip=1000.0, layout="log_uniform", seed=0)
obj, _, x0 = generate_with_start(spec)
stop = 1e-10 * obj.f_gap(x0)

for method in ("cg_classic", "ag"):
    trace = run(obj, method, x0, 40_000, stop)
    report = certify(trace, obj)
    n = len(report) - 1
    worst = max(1.0 / report.ratios[k] for k in range(1, n))
    print(f"== {method} ==")
    print(f"iterations         {n}")
    print(f"contraction C      {report.c_value:.6f}   (1/C = {1.0 / report.c_value:.6f})")
    print(f"first_violation    {report.first_violation}")
    print(f"worst psi_k+1/psi_k {worst:.6f}  (certified <= 1/C + slack)")
    print(f"theorem1 envelope  {'holds' if report.theorem1_ok else 'VIOLATED'}")
    if report.daniel_ok is not None:
        print(f"daniel envelope    {'holds' if report.daniel_ok else 'VIOLATED'}")
    print("    k      psi_k          f_gap_k")
    for k in range(0, n + 1, max(1, n // 6)):
        print(f"  {k:4d}   {report.psis[k]:12.5e}   {report.f_gaps[k]:12.5e}")
    print()

print("AG contracts at the stronger AG-only constant; CG at 1 + sqrt(l/L).")
print("Both runs above used the same instance, same x0, same stop rule.")
