"""The defect package of a commuting tuple, on the classic worked example.

Takes the 3x3 nilpotent Jordan block with the constant-coefficient kernel,
where every operator in the construction has a closed form, and verifies the
two structural identities Delta^2 + Ttilde Ttilde* = I and
Ttilde Dtilde = Delta Ttilde.  Ends with the purity series.
"""
import numpy as np

from cnpcurv import defect_package, load_tuple, nilpotency_degree, preset, purity

J = np.zeros((3, 3), dtype=complex)
J[1, 0] = J[2, 1] = 1.0

t = load_tuple([J])
k = preset("szego", d=1, N=10)

print("Jordan block J (ones on the subdiagonal):")
print(np.real(J).astype(int))
print("\nnilpotency degree:", nilpotency_degree(t))

pkg = defect_package(t, k)
print("\ntruncation horizon n_op =", pkg.n_op)
print("surviving block indices:", [str(a) for a in pkg.tilde_index_set])

print("\nDelta^2 = I - J J*:")
print(np.round(np.real(pkg.delta @ pkg.delta), 12))
print("rank of Ran Delta:", pkg.rank_delta)

print("\nDtilde^2 = I - J* J:")
print(np.round(np.real(pkg.d_tilde @ pkg.d_tilde), 12))
print("rank of Ran Dtilde:", pkg.rank_d)

print("\nStructural identities:")
print(f"  || Delta^2 + Ttilde Ttilde* - I || = {pkg.delta_identity_residual:.2e}")
print(f"  || Ttilde Dtilde - Delta Ttilde || = {pkg.intertwine_residual:.2e}")

rep = purity(pkg, k)
print(f"\nPurity series partial sum (terminates exactly: {rep.exact}):")
print(np.round(np.real(rep.p_n), 12))
print(f"purity residual || I - P || = {rep.purity_residual:.2e}")

print(
    """
A non-nilpotent example: the scalar contraction T = 1/2.  The series no
longer terminates; the package records a certified bound on the omitted
tail instead.
"""
)
th = load_tuple([np.array([[0.5]])])
k40 = preset("szego", d=1, N=40)
pkg_h = defect_package(th, k40, n_op=20)
print(f"Delta = {pkg_h.delta[0,0]:.6f}  (sqrt(3)/2 = {np.sqrt(3)/2:.6f})")
print(f"tail bound: {pkg_h.tail_bound:.3e}")
rep_h = purity(pkg_h, k40, n_op=20)
print(f"purity residual at horizon 20: {rep_h.purity_residual:.3e} "
      f"(geometric: 4^-21 = {0.25**21:.3e})")
