"""Characteristic function of a tuple: point evaluation and Taylor series.

theta(z) = W* (-Ttilde + Delta (I - B(z))^{-1} Z(z) Dtilde) V, where
B(z) = sum b_alpha z^alpha (T^alpha)* and Z(z) is the block row with
alpha-block sqrt(b_alpha) z^alpha I.  Compressing by the range bases W and V
loses nothing: theta maps Ran Dtilde into Ran Delta, and the compression
makes trace(A_gamma A_gamma*) basis independent.

Taylor coefficients are extracted by graded convolution of the operator
power series G = Z + B G (never by numerical differentiation), which is
exact for jointly nilpotent tuples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comb import MultiIndex, enumerate_degree
from .config import DEFAULT, Tolerances
from .errors import HorizonExceeded, NearSingular, OutsideBall
from .kernel import KernelSpec
from .tuples import DefectPackage, op_norm

__all__ = [
    "PointEvaluation",
    "CharacteristicSeries",
    "eval_theta",
    "taylor",
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

    @property
    def trace_theta_theta_star(self) -> float:
        return float(np.sum(self.singular_values**2))


# Working memory one chunk of points may take in the batched evaluation.
_CHUNK_BYTES = 2**21


def _monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """z^alpha for every point (rows of points) and every exponent row of
    exps: a (number of points) x (number of exponents) table."""
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def _point_bytes(pkg: DefectPackage, d: int) -> int:
    """Bytes one point takes in _theta_map: its monomials and psi row, B(z)
    and the system, the right-hand side and solution, and theta."""
    dim, rank_d = pkg.dim_h, pkg.rank_d
    n_blocks = len(pkg.tilde_index_set)
    return 16 * (
        n_blocks * (d + 1) + 2 * dim * dim + 2 * dim * rank_d + 2 * pkg.rank_delta * rank_d
    )


def _theta_map(pkg: DefectPackage, k: KernelSpec, points, reduce, tol: Tolerances) -> np.ndarray:
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

    Raises OutsideBall if any point has ||z|| >= 1 (before any evaluation)
    and NearSingular if the resolvent system's 2-norm condition number
    exceeds the gate at any point.
    """
    points = np.asarray(points, dtype=complex)
    coords = np.abs(points).max(axis=1, initial=0.0)  # gate before squaring: no overflow
    if np.any(coords >= 1.0):
        raise OutsideBall(f"|z_i| = {coords[np.argmax(coords >= 1.0)]:.6g} is not < 1")
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms >= 1.0):
        raise OutsideBall(f"||z|| = {norms[np.argmax(norms >= 1.0)]:.6g} is not < 1")
    dim, n_blocks, rank_d = pkg.dim_h, len(pkg.tilde_index_set), pkg.rank_d
    exps = np.array([a.entries for a in pkg.tilde_index_set], dtype=int).reshape(n_blocks, k.d)
    roots = np.sqrt([k.b_of(a) for a in pkg.tilde_index_set])
    # t_tilde[i, alpha * dim + j] is entry (i, j) of the alpha-block
    blocks = pkg.t_tilde.reshape(dim, n_blocks, dim)
    b_adj = blocks.conj().transpose(1, 2, 0).reshape(n_blocks, dim * dim)
    dv = (pkg.d_tilde @ pkg.v).reshape(n_blocks, dim * rank_d)
    const = -pkg.w.conj().T @ pkg.t_tilde @ pkg.v
    left = pkg.w.conj().T @ pkg.delta
    eye = np.eye(dim)

    chunk = max(1, _CHUNK_BYTES // _point_bytes(pkg, k.d))
    out = []
    for start in range(0, len(points), chunk):
        zc = points[start:start + chunk]
        psi = _monomials(zc, exps) * roots
        system = eye - (psi @ b_adj).reshape(len(zc), dim, dim)
        if dim and np.any(np.linalg.cond(system) > tol.near_singular_cond):
            raise NearSingular(
                "resolvent system is ill-conditioned at this point; reduce the "
                "radius or raise the horizon"
            )
        x = np.linalg.solve(system, (psi @ dv).reshape(len(zc), dim, rank_d))
        out.append(reduce(zc, const + left @ x))
    return np.concatenate(out) if out else np.zeros(0)


def eval_theta(
    pkg: DefectPackage,
    k: KernelSpec,
    z,
    tol: Tolerances = DEFAULT,
) -> PointEvaluation:
    """Evaluate theta at a point of the open unit ball.

    Solves (I - B(z)) X = Z(z) Dtilde V directly; invertibility inside the
    ball is guaranteed because ||B(z)|| <= 1 - 1/s(z, z) < 1 before
    truncation.  Raises OutsideBall for ||z|| >= 1 and NearSingular when the
    resolvent system's condition number exceeds the gate (point too close
    to the boundary for the horizon).  This is the one-point case of the
    batched evaluation the curvature and fibre-dimension estimators use.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (k.d,):
        raise ValueError(f"point must have {k.d} coordinates, got {z.shape}")
    theta = _theta_map(pkg, k, z[None, :], lambda zc, th: th, tol)[0]
    sv = np.linalg.svd(theta, compute_uv=False)
    return PointEvaluation(z=z, theta=theta, singular_values=sv)


@dataclass(frozen=True)
class CharacteristicSeries:
    """Graded Taylor data: coeffs maps alpha entries to the rank_delta x
    rank_d matrix A_alpha, for |alpha| <= n_theta.  w and v are the range
    bases the coefficients are expressed in (handles from the package)."""

    coeffs: dict[tuple[int, ...], np.ndarray]
    n_theta: int
    d: int
    rank_delta: int
    rank_d: int
    is_polynomial: bool
    degree: int | None           # exact degree when is_polynomial
    kernel_fingerprint: tuple
    w: np.ndarray | None = None
    v: np.ndarray | None = None

    def coeff(self, alpha) -> np.ndarray:
        key = tuple(alpha.entries) if isinstance(alpha, MultiIndex) else tuple(alpha)
        a = self.coeffs.get(key)
        if a is None:
            return np.zeros((self.rank_delta, self.rank_d), dtype=complex)
        return a

    def coeff_gram_trace(self, alpha) -> float:
        """trace(A_alpha A_alpha*)."""
        a = self.coeff(alpha)
        return float(np.sum(np.abs(a) ** 2))

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


def taylor(
    pkg: DefectPackage,
    k: KernelSpec,
    n_theta: int | None = None,
    tol: Tolerances = DEFAULT,
) -> CharacteristicSeries:
    """Extract A_gamma for |gamma| <= n_theta by graded convolution.

    A_0 = -W* Ttilde V; for |gamma| >= 1, A_gamma = W* Delta G_gamma Dtilde V
    where G solves G = Z + B G degree by degree.  Requires n_theta <= n_op
    unless the kernel certifies b_n = 0 beyond the package horizon.
    """
    if n_theta is None:
        n_theta = default_taylor_horizon(pkg, k)
    if n_theta < 0:
        raise ValueError("n_theta must be >= 0")
    if n_theta > pkg.n_op and not k.b_is_zero_beyond(pkg.n_op):
        raise HorizonExceeded(
            f"n_theta = {n_theta} demands blocks beyond the package horizon "
            f"n_op = {pkg.n_op}"
        )
    if n_theta > k.N and not k.b_is_zero_beyond(k.N):
        raise HorizonExceeded(f"n_theta = {n_theta} beyond kernel horizon {k.N}")

    dim, tdim = pkg.dim_h, pkg.tilde_dim

    b_coeff: dict[tuple[int, ...], np.ndarray] = {}
    z_coeff: dict[tuple[int, ...], np.ndarray] = {}
    for idx, alpha in enumerate(pkg.tilde_index_set):
        root = np.sqrt(k.b_of(alpha))
        block = pkg.t_tilde[:, pkg.block_slice(idx)]
        b_coeff[alpha.entries] = root * block.conj().T
        sel = np.zeros((dim, tdim), dtype=complex)
        sel[:, pkg.block_slice(idx)] = root * np.eye(dim)
        z_coeff[alpha.entries] = sel

    left = pkg.w.conj().T @ pkg.delta
    right = pkg.d_tilde @ pkg.v

    coeffs: dict[tuple[int, ...], np.ndarray] = {}
    coeffs[(0,) * k.d] = -pkg.w.conj().T @ pkg.t_tilde @ pkg.v

    g: dict[tuple[int, ...], np.ndarray] = {}
    for n in range(1, n_theta + 1):
        for gamma in enumerate_degree(k.d, n):
            acc = z_coeff.get(gamma.entries)
            acc = acc.copy() if acc is not None else np.zeros((dim, tdim), dtype=complex)
            for beta_key, b_mat in b_coeff.items():
                rest = tuple(ge - be for ge, be in zip(gamma.entries, beta_key))
                if any(e < 0 for e in rest) or sum(rest) == 0:
                    continue
                acc += b_mat @ g[rest]
            g[gamma.entries] = acc
            coeffs[gamma.entries] = left @ acc @ right

    is_poly, degree = _polynomial_state(pkg, k, coeffs, n_theta, tol)
    return CharacteristicSeries(
        coeffs=coeffs,
        n_theta=n_theta,
        d=k.d,
        rank_delta=pkg.rank_delta,
        rank_d=pkg.rank_d,
        is_polynomial=is_poly,
        degree=degree,
        kernel_fingerprint=k.fingerprint(),
        w=pkg.w,
        v=pkg.v,
    )


def default_taylor_horizon(pkg: DefectPackage, k: KernelSpec) -> int:
    """Termination degree for nilpotent tuples over finitely supported b,
    else the package horizon."""
    nd = pkg.nilpotent_degree
    if nd is not None and k.b_support_bound is not None:
        return max(1, nd - 1 + k.b_support_bound)
    return pkg.n_op


def _polynomial_state(pkg, k, coeffs, n_theta, tol):
    """theta is certified polynomial when the tuple is nilpotent and the
    kernel's b-support is finite: every coefficient beyond
    (nilpotency - 1) + max b-support then vanishes identically."""
    nd = pkg.nilpotent_degree
    if nd is None or k.b_support_bound is None:
        return False, None
    bound = nd - 1 + k.b_support_bound
    if n_theta < bound:
        return False, None
    scale = max(1.0, max((op_norm(a) for a in coeffs.values()), default=0.0))
    degree = 0
    for key, a in coeffs.items():
        if op_norm(a) > tol.eps_id * scale and sum(key) > degree:
            degree = sum(key)
    return True, degree


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
    tol: Tolerances = DEFAULT,
) -> ConsistencyCheck:
    """Max over sampled ||z|| <= r_check of ||eval - series sum||.

    The residual is the analytic tail of a contractive function, so it must
    stay below (1 + eps) * r^{n_theta+1} / (1 - r).
    """
    points = sample_ball_points(k.d, n_samples, r_check, seed)

    def residuals(zc, theta):
        diff = theta - series.evaluate(zc)
        return np.linalg.svd(diff, compute_uv=False)[:, 0] if diff.size else np.zeros(len(zc))

    residual = _theta_map(pkg, k, points, residuals, tol)
    worst = float(residual.max()) if residual.size else 0.0
    bound = (1.0 + 1e-8) * r_check ** (series.n_theta + 1) / (1.0 - r_check)
    return ConsistencyCheck(max_residual=worst, tail_bound=bound + tol.eps_id)
