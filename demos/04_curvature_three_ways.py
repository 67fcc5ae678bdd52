"""The curvature invariant computed by its three routes and reconciled.

For the polynomial case (Jordan block) the three estimators agree to
rounding (the integral is an exact sphere rule there) and the invariant is
the integer 0.  For a kernel with
slow coefficient tails (dirichlet) the series and weighted routes carry a
visible, quantified truncation gap that shrinks with the horizon; the
reconciliation verdict documents the gaps instead of pretending they vanish.
"""
import numpy as np

from cnpcurv import RunSettings, load_tuple, preset, run_curvature

print("=" * 72)
print("1. Jordan block J_3 over the constant-coefficient kernel")
print("=" * 72)

J = np.zeros((3, 3)); J[1, 0] = J[2, 1] = 1.0
res = run_curvature(load_tuple([J]), preset("szego", d=1, N=16),
                    RunSettings(n_samples=2000, seed=7))
r = res.report
print(f"dim Ran Delta        : {r.dim_ran_delta}")
print(f"series route         : K = {r.k_series:.3e}")
print(f"weighted route (n=12): K = {r.k_weighted[-1]:.3e}")
print(f"integral route       : K = {r.k_integral.estimate:.6f} "
      f"+/- {r.k_integral.stderr:.1e}  at r = {r.k_integral.radius} "
      f"({r.k_integral.method}, {r.k_integral.n_samples} points)")
print(f"  exact same-radius value from the series: {r.k_at_radius_exact:.6f}")
print(f"pure integer route   : K = {r.k_pure}  (fd = {r.fd_eval})")
print(f"verdict ok: {r.verdict.ok};  recorded conjecture gap "
      f"{r.verdict.conjecture_gap:.4f} (the averaged quotient converges slowly)")

print()
print("convergence table (coefficient routes):")
print(f"{'n':>3} {'t_E/q_(d-1)':>14} {'t_P/q_d':>14} {'dPsi partial':>14}")
for row in r.convergence:
    print(f"{row['n']:>3} {row['t_e_normalized']:>14.8f} "
          f"{row['t_p_normalized']:>14.8f} {row['dpsi_partial']:>14.8f}")

print()
print("=" * 72)
print("2. Zero tuple on C^2 over the dirichlet kernel: truncation is visible")
print("=" * 72)

t0 = load_tuple([np.zeros((2, 2))])
for horizon in (20, 40, 60):
    k = preset("dirichlet", d=1, N=horizon + 4)
    res0 = run_curvature(
        t0, k, RunSettings(n_op=horizon, n_theta=horizon, n_max=10, n_samples=500)
    )
    r0 = res0.report
    tail = 2 * (1 - k.b_partial_sum(horizon))
    print(f"horizon {horizon:>3}: K_series = {r0.k_series:.6f} "
          f"(= dim * b-tail = {tail:.6f}),  K_integral = "
          f"{r0.k_integral.estimate:.6f},  verdict ok: {r0.verdict.ok}")

print(
    """
The true invariant is 0 (the tuple is pure with full fibre dimension); the
series route converges to it from above at the speed of the b-tails, which
for this kernel is logarithmic.  The verdict stays green because the gaps
are exactly the documented truncation terms, not estimator disagreements.
"""
)
