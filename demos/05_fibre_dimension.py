"""Fibre dimension: evaluation rank versus the graded-dimension quotient.

The rank of theta(z) is generically maximal, so sampling a handful of ball
points already pins the fibre dimension; the graded quotients
dim(P_n Ran M_theta)/q_d(n) approach the same number from below, at a speed
visible in the tables printed here.  They come from a finite sigma walk on
the tuple itself: for a nilpotent tuple h(n) = rank_delta q_d(n) - dimH
once n reaches the nilpotency degree minus one.  Closes with the series
value against fd, as the report's verdict records it, and what slow kernel
tails do to that comparison at a finite horizon.
"""
import numpy as np

from cnpcurv import (
    RunSettings,
    defect_package,
    fd_by_grading,
    fd_report,
    load_tuple,
    preset,
    purity,
    run_curvature,
)

print("=" * 72)
print("1. Jordan block: fd = 1, graded quotients (n-2)/(n+1)")
print("=" * 72)

J = np.zeros((3, 3)); J[1, 0] = J[2, 1] = 1.0
t = load_tuple([J])
k = preset("szego", d=1, N=16)
pkg = defect_package(t, k)
pur = purity(pkg, k)
rep = fd_report(pkg, k, purity_residual=pur.purity_residual)
print(f"evaluation rank: fd = {rep.fd_eval}  [{rep.label}], attained by "
      f"{100 * rep.attained_fraction:.0f}% of samples")

seq = fd_by_grading(pkg, k, 14)
print("graded quotients:", np.round(seq, 4))
print("  (h(n) = q_1(n) - 3 from n = 2 on: the quotient module has dimension dimH = 3)")

print()
print("=" * 72)
print("2. Zero tuple on C^3: full fibre dimension")
print("=" * 72)

t0 = load_tuple([np.zeros((3, 3))])
k0 = preset("drury-arveson", d=1, N=10)
pkg0 = defect_package(t0, k0, n_op=1)
rep0 = fd_report(pkg0, k0, purity_residual=0.0)
print(f"fd = {rep0.fd_eval}  (theta(z) = z·I_3 has full row rank off the origin)")

print()
print("=" * 72)
print("3. Series value against fd: a finite-horizon check, recorded only")
print("=" * 72)


def finite_horizon_check(res):
    """The reconcile check comparing trace dPsi with fd_eval (pure tuples)."""
    checks = {c.name: c for c in res.report.verdict.checks}
    return checks["finite_horizon:series_vs_fd_eval"]


res = run_curvature(t, k, RunSettings(n_samples=600, n_max=12))
c = finite_horizon_check(res)
print("Jordan block (terminating series):")
print(f"  series value vs fd gap : {abs(c.value - c.reference):.2e}  -> ok = {c.ok}")
print(f"  P-quotient gap at n = 12 (conjecture_gap): {res.report.verdict.conjecture_gap:.4f}")

t2 = load_tuple([np.zeros((2, 2))])
kd = preset("dirichlet", d=1, N=44)
res2 = run_curvature(t2, kd, RunSettings(n_op=40, n_theta=40, n_max=10, n_samples=300))
c2 = finite_horizon_check(res2)
print("\nZero tuple on C^2, dirichlet kernel, horizon 40 (slow b-tails):")
print(f"  series value vs fd gap : {abs(c2.value - c2.reference):.4f}  -> ok = {c2.ok}")
print(f"  (the gap equals dim times the kernel's b-tail mass "
      f"{1 - kd.b_partial_sum(40):.4f}; it shrinks only logarithmically,")
print("   so the 0.05 rule fails at this horizon.  The check is recorded, not")
print(f"   asserted: the verdict stays ok = {res2.report.verdict.ok} and reports the deficit)")
