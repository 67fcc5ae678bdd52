"""Fibre dimension of the range of the characteristic function.

Two estimators: the maximal numerical rank of theta(z) over sampled ball
points (the rank of an analytic matrix function is generically maximal and
can only drop on thin sets), and the graded-dimension quotient
dim(P_n Ran M_theta) / q_d(n), whose trend recovers the same number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import CharacteristicSeries, _theta_map
from .comb import q
from .config import DEFAULT, Tolerances
from .errors import HorizonExceeded, NotPure
from .kernel import KernelSpec
from .traces import multiplier_matrix
from .tuples import DefectPackage

__all__ = [
    "FibreDimReport",
    "InnermultVerdict",
    "fd_report",
    "fd_by_grading",
    "innermult_consistency",
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
    tol: Tolerances = DEFAULT,
) -> FibreDimReport:
    """Max numerical rank of theta(z) over sampled points (radii spread over
    [radius/2, radius] to guard degenerate sampling), with the share of
    samples attaining it."""
    if n_samples < 20:
        raise ValueError("n_samples must be >= 20 (rank sampling needs spread)")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_samples, k.d)) + 1j * rng.standard_normal((n_samples, k.d))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    radii = radius * (0.5 + 0.5 * rng.random(n_samples))
    points = radii[:, None] * u
    ranks = _theta_map(
        pkg, k, points, lambda zc, theta: _numerical_ranks(theta, tol.eps_rank), tol
    )
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


def fd_by_grading(
    series: CharacteristicSeries,
    k: KernelSpec,
    n_max: int,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """dim(P_n Ran M_theta) / q_d(n) for n = 0..n_max.

    The column space of the multiplication matrix truncated to source and
    target degree n is exactly P_n applied to the range: a source monomial
    of degree above n contributes nothing below degree n+1."""
    if n_max > k.N:
        raise HorizonExceeded(f"n_max = {n_max} beyond kernel horizon {k.N}")
    if not series.coeffs:
        return np.zeros(n_max + 1)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        m = multiplier_matrix(k, series.coeffs, n, n)
        out[n] = _numerical_ranks(m[None], tol.eps_rank)[0] / q(k.d, n)
    return out


@dataclass(frozen=True)
class InnermultVerdict:
    ok: bool
    gap_series_vs_eval: float     # | trace dPsi series - fd_eval |
    trend_ok: bool
    gap_p_quotient_last: float    # | t_P(n_max)/q_d - fd_eval |
    gap_p_quotient_early: float


def innermult_consistency(
    fd_rep: FibreDimReport,
    dpsi_series_value: float,
    t_p_normalized: list[float],
    purity_residual: float,
    tol: Tolerances = DEFAULT,
) -> InnermultVerdict:
    """Check the inner-multiplier chain: series value == fd == limiting
    P-trace quotient.

    Gated on purity (the characteristic function is inner only then).  The
    series value is compared to fd within 0.05; the P-trace quotient is only
    required to trend toward fd, since at any finite degree it lags the limit
    by a head-weighted deficit."""
    if purity_residual > tol.eps_pure:
        raise NotPure(
            f"purity residual {purity_residual:.3e} exceeds {tol.eps_pure:.1e}"
        )
    gap_eval = abs(dpsi_series_value - fd_rep.fd_eval)
    last = abs(t_p_normalized[-1] - fd_rep.fd_eval)
    early = abs(t_p_normalized[len(t_p_normalized) // 2] - fd_rep.fd_eval)
    trend_ok = last <= early + tol.eps_id
    return InnermultVerdict(
        ok=gap_eval <= 0.05 and trend_ok,
        gap_series_vs_eval=gap_eval,
        trend_ok=trend_ok,
        gap_p_quotient_last=last,
        gap_p_quotient_early=early,
    )
