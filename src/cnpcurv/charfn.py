"""Characteristic function of a tuple: point evaluation and Taylor series.

theta(z) = W* (-Ttilde + Delta (I - B(z))^{-1} Z(z) Dtilde) V, where
B(z) = sum b_alpha z^alpha (T^alpha)* and Z(z) is the block row with
alpha-block sqrt(b_alpha) z^alpha I.  Compressing by the range bases W and V
loses nothing: theta maps Ran Dtilde into Ran Delta, and the compression
makes trace(A_gamma A_gamma*) basis independent.

Point values and Taylor coefficients read the pieces of this one
realization from the package (DefectPackage.realization, built once per
package).  The coefficients come from a graded recursion on dimH x rank_d
matrices (see taylor), never from numerical differentiation, and are exact
for jointly nilpotent tuples; they serve `theta --taylor`, while the curvature
report reads only termination_bound.  Every gate is the package's own:
nothing here takes a tolerance, and a series records the package's tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comb import enumerate_degree
from .config import Tolerances
from .errors import HorizonExceeded, NearSingular, OutsideBall
from .kernel import KernelSpec
from .tuples import DefectPackage, op_norm

__all__ = [
    "PointEvaluation",
    "CharacteristicSeries",
    "eval_theta",
    "taylor",
    "theta_horizon",
    "termination_bound",
    "check_consistency",
    "sample_ball_points",
]


@dataclass(frozen=True)
class PointEvaluation:
    z: np.ndarray
    theta: np.ndarray            # rank_delta x rank_d
    singular_values: np.ndarray

    @property
    def norm(self) -> float:
        return float(self.singular_values[0]) if self.singular_values.size else 0.0


# Working memory one chunk of points may take in the batched evaluation.
_CHUNK_BYTES = 2**21


def _monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """z^alpha for every point (rows of points) and every exponent row of
    exps: a (number of points) x (number of exponents) table."""
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def _point_bytes(pkg: DefectPackage, d: int) -> int:
    """Bytes one point takes in _theta_map: its monomials and psi row, B(z),
    the system and its inverse, the right-hand side and solution, and theta."""
    dim, rank_d, n_blocks = pkg.dim_h, pkg.rank_d, len(pkg.tilde_index_set)
    return 16 * (
        n_blocks * (d + 1) + 3 * dim * dim + 2 * dim * rank_d + 2 * pkg.rank_delta * rank_d
    )


def _ill_conditioned(system: np.ndarray, gate: float) -> np.ndarray:
    """np.linalg.cond(system) > gate for each matrix of a nonempty stack,
    with an SVD only for the matrices a cheaper bound cannot clear.

    One batched LU inverse gives kappa_F = ||A||_F ||A^-1||_F, which bounds
    the 2-norm condition number kappa_2 from above.  A matrix with
    kappa_F <= gate / 2 passes.  The factor 2 is a margin for rounding:
    there kappa_2 <= 5e11 at the default gate, so the computed inverse and
    the singular values behind np.linalg.cond each carry a relative error
    of about kappa_2 * u <= 1e-4 (u the unit roundoff), and the exact test
    would also have passed.  The margin covers that error for any gate up
    to about 1e15.  Every other matrix takes the exact test: a singular one,
    whose inverse is inf or NaN (hence the negated comparison), and one
    whose bound is near or above the gate.
    """
    unsure = ~(np.linalg.cond(system, "fro") <= gate / 2)
    out = np.zeros(len(system), dtype=bool)
    if np.any(unsure):
        out[unsure] = np.linalg.cond(system[unsure]) > gate
    return out


def _theta_map(pkg: DefectPackage, k: KernelSpec, points, reduce) -> np.ndarray:
    """reduce(z, theta) over the points, one memory-bounded chunk at a time.

    For a chunk of p points, psi_alpha(z) = sqrt(b_alpha) z^alpha is formed
    for all blocks at once; B(z) = sum psi_alpha (T^alpha)* and Z(z) Dtilde V
    = sum psi_alpha (Dtilde V)_alpha are single contractions against the
    block adjoints and the row blocks of Dtilde V, so the dimH x tilde_dim
    row Z(z) is never built.  One stacked solve then gives
    theta = -W* Ttilde V + (W* Delta) (I - B(z))^{-1} Z(z) Dtilde V.
    reduce maps the chunk's points and its p x rank_delta x rank_d theta
    stack to one value per point; each chunk is reduced before the next is
    built, so memory stays near _CHUNK_BYTES whatever the number of points.

    Raises OutsideBall if any point has a non-finite coordinate or
    ||z|| >= 1 (before any evaluation) and NearSingular if the resolvent
    system's 2-norm condition number exceeds the package's gate at any point.
    """
    points = np.asarray(points, dtype=complex)
    finite = np.isfinite(points)
    if not finite.all():
        raise OutsideBall(f"z_i = {points[~finite][0]:.6g} is not finite")
    coords = np.abs(points).max(axis=1, initial=0.0)  # gate before squaring: no overflow
    if np.any(coords >= 1.0):
        raise OutsideBall(f"|z_i| = {coords[np.argmax(coords >= 1.0)]:.6g} is not < 1")
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms >= 1.0):
        raise OutsideBall(f"||z|| = {norms[np.argmax(norms >= 1.0)]:.6g} is not < 1")
    exps, roots, adj, dv, const, left = pkg.realization
    dim, n_blocks, rank_d = pkg.dim_h, len(roots), pkg.rank_d
    b_adj, dv = adj.reshape(n_blocks, dim * dim), dv.reshape(n_blocks, dim * rank_d)
    eye = np.eye(dim)

    chunk = max(1, _CHUNK_BYTES // _point_bytes(pkg, k.d))
    out = []
    for start in range(0, len(points), chunk):
        zc = points[start:start + chunk]
        psi = _monomials(zc, exps) * roots
        system = eye - (psi @ b_adj).reshape(len(zc), dim, dim)
        if dim and np.any(_ill_conditioned(system, pkg.tol.near_singular_cond)):
            raise NearSingular(
                "resolvent system is ill-conditioned at this point; reduce the "
                "radius or raise the horizon"
            )
        x = np.linalg.solve(system, (psi @ dv).reshape(len(zc), dim, rank_d))
        out.append(reduce(zc, const + left @ x))
    return np.concatenate(out) if out else np.zeros(0)


def eval_theta(pkg: DefectPackage, k: KernelSpec, z) -> PointEvaluation:
    """Evaluate theta at a point of the open unit ball.

    Solves (I - B(z)) X = Z(z) Dtilde V directly; invertibility inside the
    ball is guaranteed because ||B(z)|| <= 1 - 1/s(z, z) < 1 before
    truncation.  Raises OutsideBall for ||z|| >= 1 and NearSingular when the
    resolvent system's condition number exceeds the package's gate (point
    too close to the boundary for the horizon).  This is the one-point case
    of the batched evaluation the curvature and fibre-dimension estimators
    use.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (k.d,):
        raise ValueError(f"point must have {k.d} coordinates, got {z.shape}")
    theta = _theta_map(pkg, k, z[None, :], lambda zc, th: th)[0]
    sv = np.linalg.svd(theta, compute_uv=False)
    return PointEvaluation(z=z, theta=theta, singular_values=sv)


@dataclass(frozen=True)
class CharacteristicSeries:
    """Graded Taylor data: coeffs maps alpha entries to the rank_delta x
    rank_d matrix A_alpha, for |alpha| <= n_theta, with the tolerances of
    the package it was built from."""

    coeffs: dict[tuple[int, ...], np.ndarray]
    n_theta: int
    d: int
    rank_delta: int
    rank_d: int
    is_polynomial: bool
    degree: int | None           # exact degree when is_polynomial
    tol: Tolerances

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Sum of A_gamma z^gamma over the stored coefficients, at one point
        (shape (d,)) or at each row of a stack of points (shape (p, d))."""
        z = np.asarray(z, dtype=complex)
        exps = np.array(list(self.coeffs), dtype=int).reshape(len(self.coeffs), self.d)
        stack = np.array(list(self.coeffs.values())).reshape(
            len(self.coeffs), self.rank_delta, self.rank_d
        )
        out = np.tensordot(_monomials(np.atleast_2d(z), exps), stack, axes=1)
        return out if z.ndim == 2 else out[0]


def taylor(pkg: DefectPackage, k: KernelSpec, n_theta: int | None = None) -> CharacteristicSeries:
    """Extract A_gamma for |gamma| <= n_theta (theta_horizon) from the
    realization the point values use.

    A_0 = -W* Ttilde V and A_gamma = W* Delta H_gamma, where H_gamma =
    G_gamma Dtilde V are the dimH x rank_d coefficients of (I - B(z))^{-1}
    Z(z) Dtilde V, built degree by degree as
    H_gamma = sqrt(b_gamma) (Dtilde V)_gamma (when gamma is a block)
    + sum over blocks 0 < beta < gamma of sqrt(b_beta) Ttilde_beta* H_{gamma-beta}.
    """
    n_theta = theta_horizon(pkg, k, n_theta)
    exps, roots, adj, dv, const, left = pkg.realization
    block_of = {tuple(e): i for i, e in enumerate(exps.tolist())}
    steps = roots[:, None, None] * adj
    coeffs: dict[tuple[int, ...], np.ndarray] = {(0,) * k.d: const}
    h: dict[tuple[int, ...], np.ndarray] = {}
    for n in range(1, n_theta + 1):
        for gamma in enumerate_degree(k.d, n):
            i = block_of.get(gamma.entries)
            acc = roots[i] * dv[i] if i is not None else np.zeros(dv.shape[1:], complex)
            rest = np.array(gamma.entries) - exps
            for j in np.flatnonzero((rest >= 0).all(axis=1) & (rest.sum(axis=1) > 0)):
                acc += steps[j] @ h[tuple(rest[j].tolist())]
            h[gamma.entries] = acc
            coeffs[gamma.entries] = left @ acc

    is_poly, degree = _polynomial_state(pkg, k, coeffs, n_theta)
    return CharacteristicSeries(
        coeffs=coeffs,
        n_theta=n_theta,
        d=k.d,
        rank_delta=pkg.rank_delta,
        rank_d=pkg.rank_d,
        is_polynomial=is_poly,
        degree=degree,
        tol=pkg.tol,
    )


def theta_horizon(pkg: DefectPackage, k: KernelSpec, n_theta: int | None = None) -> int:
    """The degree the Taylor series and the degree profile are cut at.

    Defaults to the termination degree for nilpotent tuples over finitely
    supported b, else the package horizon.  Raises HorizonExceeded when
    n_theta needs blocks beyond n_op or kernel coefficients beyond N that
    the kernel does not certify to vanish."""
    if n_theta is None:
        nd, support = pkg.nilpotent_degree, k.b_support_bound
        n_theta = pkg.n_op if nd is None or support is None else max(1, nd - 1 + support)
    if n_theta < 0:
        raise ValueError("n_theta must be >= 0")
    if n_theta > pkg.n_op and not k.b_is_zero_beyond(pkg.n_op):
        raise HorizonExceeded(
            f"n_theta = {n_theta} demands blocks beyond the package horizon "
            f"n_op = {pkg.n_op}"
        )
    if n_theta > k.N and not k.b_is_zero_beyond(k.N):
        raise HorizonExceeded(f"n_theta = {n_theta} beyond kernel horizon {k.N}")
    return n_theta


def termination_bound(pkg: DefectPackage, k: KernelSpec, n_theta: int) -> int | None:
    """The degree nd - 1 + b-support beyond which every coefficient of theta
    vanishes identically, or None when theta is not certified polynomial at
    horizon n_theta: the tuple is not nilpotent, the kernel's b-support is
    not finite, or n_theta falls short of the bound."""
    nd, support = pkg.nilpotent_degree, k.b_support_bound
    if nd is None or support is None or n_theta < nd - 1 + support:
        return None
    return nd - 1 + support


def _polynomial_state(pkg, k, coeffs, n_theta):
    """theta is polynomial when termination_bound certifies it.  The degree
    is then the largest one with a coefficient above eps_id times the
    largest coefficient norm (or 1); each norm is taken once."""
    if termination_bound(pkg, k, n_theta) is None:
        return False, None
    norms = {key: op_norm(a) for key, a in coeffs.items()}
    cut = pkg.tol.eps_id * max(1.0, max(norms.values(), default=0.0))
    return True, max((sum(key) for key, norm in norms.items() if norm > cut), default=0)


def sample_ball_points(d: int, n_samples: int, radius: float, seed: int) -> np.ndarray:
    """Deterministic points z = r * u with u uniform on the unit sphere of C^d
    (normalized complex Gaussian directions)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal((n_samples, d))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    return radius * u


@dataclass(frozen=True)
class ConsistencyCheck:
    max_residual: float
    tail_bound: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tail_bound


def check_consistency(
    series: CharacteristicSeries,
    pkg: DefectPackage,
    k: KernelSpec,
    n_samples: int = 20,
    r_check: float = 0.5,
    seed: int = 2024,
) -> ConsistencyCheck:
    """Max over sampled ||z|| <= r_check of ||eval - series sum||.

    The residual is the analytic tail of a contractive function, so it must
    stay below (1 + eps) * r^{n_theta+1} / (1 - r).
    """
    points = sample_ball_points(k.d, n_samples, r_check, seed)

    def residuals(zc, theta):
        diff = theta - series.evaluate(zc)
        return np.linalg.svd(diff, compute_uv=False)[:, 0] if diff.size else np.zeros(len(zc))

    residual = _theta_map(pkg, k, points, residuals)
    worst = float(residual.max()) if residual.size else 0.0
    bound = (1.0 + 1e-8) * r_check ** (series.n_theta + 1) / (1.0 - r_check)
    return ConsistencyCheck(max_residual=worst, tail_bound=bound + pkg.tol.eps_id)
