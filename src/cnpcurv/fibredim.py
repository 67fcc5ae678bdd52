"""Fibre dimension of the range of the characteristic function.

Two estimators: the maximal numerical rank of theta(z) over sampled ball
points (the rank of an analytic matrix function is generically maximal and
can only drop on thin sets), and the graded-dimension quotient
dim(P_n Ran M_theta) / q_d(n), whose trend recovers the same number.
curvature.reconcile records how far trace dPsi sits from fd_eval.

The graded dimensions need no multiplier and no Taylor series: M_theta
M_theta* = I - L L* with L* P_n L the purity partial sum p_n, so the rank
of the truncated multiplier is read off dimH x dimH factors of
I - p_n = sum_l c_l sigma^l(I), a finite sum over the sigma walk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import _theta_map
from .comb import q
from .errors import HorizonExceeded
from .kernel import KernelSpec
from .tuples import DefectPackage

__all__ = [
    "FibreDimReport",
    "fd_report",
    "fd_by_grading",
]


def _numerical_ranks(stack: np.ndarray, eps_rank: float) -> np.ndarray:
    """Numerical rank of each matrix of a stack: singular values above
    eps_rank times the largest (0 for a zero or empty matrix)."""
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int)
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sv > eps_rank * sv[:, :1], axis=1)


@dataclass(frozen=True)
class FibreDimReport:
    rank_samples: tuple[tuple[tuple[complex, ...], int], ...]
    fd_eval: int
    attained_fraction: float     # share of samples reaching fd_eval
    label: str                   # "fd (GRS proxy)" when pure, else generic
    graded_dims: np.ndarray | None = None
    fd_graded_last: float | None = None
    fd_graded_slope: float | None = None


def fd_report(
    pkg: DefectPackage,
    k: KernelSpec,
    n_samples: int = 50,
    radius: float = 0.8,
    seed: int = 11,
    purity_residual: float | None = None,
) -> FibreDimReport:
    """Max numerical rank of theta(z) over sampled points (radii spread over
    [radius/2, radius] to guard degenerate sampling), with the share of
    samples attaining it.  Ranks, the purity label and the conditioning gate
    use the package's tolerances."""
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if n_samples < 20:
        raise ValueError("n_samples must be >= 20 (rank sampling needs spread)")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_samples, k.d)) + 1j * rng.standard_normal((n_samples, k.d))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    radii = radius * (0.5 + 0.5 * rng.random(n_samples))
    points = radii[:, None] * u
    tol = pkg.tol
    ranks = _theta_map(pkg, k, points, lambda zc, theta: _numerical_ranks(theta, tol.eps_rank))
    samples = [(tuple(z), int(rank)) for z, rank in zip(points, ranks)]
    best = int(ranks.max())
    attained = int(np.sum(ranks == best)) / n_samples
    if purity_residual is not None and purity_residual <= tol.eps_pure:
        label = "fd (GRS proxy)"
    else:
        label = "generic evaluation rank"
    return FibreDimReport(
        rank_samples=tuple(samples),
        fd_eval=best,
        attained_fraction=attained,
        label=label,
    )


def fd_by_grading(pkg: DefectPackage, k: KernelSpec, n_max: int) -> np.ndarray:
    """h(n) / q_d(n) for n = 0..n_max, with h(n) = dim P_n Ran M_theta,
    from a finite sigma walk on the dimH side.

    M_theta M_theta* = I - L L*, with L the dilation v -> sum_alpha
    a_alpha z^alpha (x) Delta T^alpha* v, and L* P_n L = p_n, the purity
    partial sum at degree n.  So M_n, the multiplier truncated to degree n,
    has the singular value sqrt(1 - mu) for each eigenvalue mu of p_n and 1
    on the rest of its r q_d(n) rows (r = rank_delta), and

        h(n) = r q_d(n) - dimH + #{singular values of G_n above eps_rank},

    where G_n G_n* = I - p_n.  That count is the rank rule of M_n, since
    ||M_theta|| <= 1 and sigma_1(M_n) = 1 wherever r q_d(n) > dimH.  With
    Delta^2 = I - sum_{j<=n_op} b_j sigma^j(I) the sum is finite for every
    tuple:

        I - p_n = sum_{n < l <= n + n_op} c_l sigma^l(I),
        c_l = sum_{max(0, l - n_op) <= m <= n} at_m b_{l-m} >= 0,

    at the reciprocal series of 1 - k_N.  So G_n stacks sqrt(c_l) E_l side
    by side, where E_l E_l* = sigma^l(I): E_0 = I, and E_l is the dimH x
    dimH triangular compression of [T_1 E_(l-1) ... T_d E_(l-1)].  The
    singular values are counted on these factors, not as eigenvalues of
    I - p_n, whose rounding (near 1e-16) lies far above the eps_rank^2 that
    the rule resolves.  For a nilpotent tuple E_l is zero, or rounding
    noise, from l = nd on, so h(n) = r q_d(n) - dimH from n = nd - 1 on.
    Raises ValueError for a negative n_max and HorizonExceeded past the
    kernel horizon."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > k.N:
        raise HorizonExceeded(f"n_max = {n_max} beyond kernel horizon {k.N}")
    n_op, dim = pkg.n_op, pkg.dim_h
    at = k.a_truncated(n_op, n_max)
    factors = [np.eye(dim, dtype=complex)]
    for _ in range(n_max + n_op):
        x = np.hstack([ti @ factors[-1] for ti in pkg.t.ops])
        factors.append(np.linalg.qr(x.conj().T, mode="r").conj().T)
    factors = np.array(factors)
    counts = np.array([q(k.d, n) for n in range(n_max + 1)])
    h = pkg.rank_delta * counts - dim
    for n in range(n_max + 1):
        # c_(n+1) .. c_(n+n_op), the terms of degree above n of at * b; the
        # zero ones (b of finite support) add nothing to G_n
        c = np.convolve(at[: n + 1], k.b[: n_op + 1])[n + 1 :]
        live = c > 0
        g = np.sqrt(c[live])[:, None, None] * factors[n + 1 : n + n_op + 1][live]
        sv = np.linalg.svd(g.transpose(1, 0, 2).reshape(dim, -1), compute_uv=False)
        h[n] += np.sum(sv > pkg.tol.eps_rank)
    return h / counts
