"""Fibre dimension of the range of the characteristic function.

Two estimators: the maximal numerical rank of theta(z) over sampled ball
points (the rank of an analytic matrix function is generically maximal and
can only drop on thin sets), and the graded-dimension quotient
dim(P_n Ran M_theta) / q_d(n), whose trend recovers the same number.

Every graded dimension comes from one triangular factor: the multiplier
truncated at degree n is a leading block of rows of the one truncated at
n_max, so its rank is that of a leading block of R, where M_{n_max}* = QR.
R is streamed from the rows of M* by source degree, n_max down to 0,
without forming the multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import CharacteristicSeries, _theta_map
from .comb import enumerate_degree, q
from .config import DEFAULT, Tolerances
from .errors import HorizonExceeded, NotPure, SizeLimitExceeded
from .kernel import KernelSpec
from .tuples import DefectPackage

__all__ = [
    "FibreDimReport",
    "InnermultVerdict",
    "fd_report",
    "fd_by_grading",
    "innermult_consistency",
    "MAX_FACTOR_BYTES",
]

# Largest triangular factor fd_by_grading builds, in bytes.  At d = 3 and
# rank_delta 10 it admits n_max = 8 (m = 1650, 44 MB) and refuses
# n_max = 12 (m = 4550, 331 MB).
MAX_FACTOR_BYTES = 64 * 2**20


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


def _slabs(starts: np.ndarray, r_src: int, limits: np.ndarray):
    """The source monomials by degree s, n_max down to 0 (those of degree s
    are numbered starts[s] to starts[s+1] - 1), cut into slabs: lists of
    (s, first, stop) ranges whose r_src rows per monomial add up to at most
    limits[s] for the slab's lowest degree s, or to one monomial."""
    slab, rows = [], 0
    for s in range(len(starts) - 2, -1, -1):
        first, stop = starts[s], starts[s + 1]
        while first < stop:
            take = min(stop - first, max((limits[s] - rows) // r_src, 0 if slab else 1))
            if take == 0:
                yield slab
                slab, rows = [], 0
                continue
            slab.append((s, first, first + take))
            rows += r_src * take
            first += take
    if slab:
        yield slab


def _merge(r: np.ndarray, rows: np.ndarray, block: int) -> None:
    """Overwrite the square upper triangular r, in place, with a triangular
    factor of [r ; rows], `block` columns at a time.

    Each step factors the block's rows of r together with what is left of
    `rows`, on the columns from the block on.  The first `block` rows of
    the result replace those of r; the rest keep the Gram matrix of what is
    left and vanish on the block's columns, so they carry on to the next
    block."""
    for j in range(0, r.shape[1], block):
        t = np.linalg.qr(np.vstack([r[j : j + block, j:], rows]), mode="r")
        r[j : j + block, j:] = t[:block]
        rows = t[block:, block:]


def fd_by_grading(
    series: CharacteristicSeries,
    k: KernelSpec,
    n_max: int,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """dim(P_n Ran M_theta) / q_d(n) for n = 0..n_max, from one triangular
    factor.

    Order the target space of M = M_theta by degree.  A source monomial of
    degree s only reaches target degrees >= s, so M_n, the multiplier
    truncated to source and target degree n, is the first m_n =
    q_d(n) rank_delta rows of M_{n_max} with zero columns appended.  If
    M_{n_max}* = QR with R upper triangular, M_n therefore has the singular
    values of the leading block R[:m_n, :m_n], and dim(P_n Ran M_theta) is
    its numerical rank (singular values above tol.eps_rank times the
    largest, the rule applied to M_n itself).

    R depends only on M M* = R* R, so it is built without the multiplier.
    The rows of M* are streamed by source degree, from n_max down to 0, in
    slabs.  Rows of source degree s vanish outside the target columns of
    degree >= s, so each slab is folded into R on those trailing columns
    only, a block of columns at a time.  Slabs and blocks are sized so that
    a QR input holds about 2 m^2 / 3 entries at most, m = q_d(n_max)
    rank_delta, and peak memory is about four times the 16 m^2 bytes of R;
    a request whose R would exceed MAX_FACTOR_BYTES raises
    SizeLimitExceeded before anything is allocated.
    A zero defect rank leaves Ran M_theta = 0 and gives zeros."""
    if n_max > k.N:
        raise HorizonExceeded(f"n_max = {n_max} beyond kernel horizon {k.N}")
    r_tgt, r_src = series.rank_delta, series.rank_d
    m = q(k.d, n_max) * r_tgt
    if 16 * m * m > MAX_FACTOR_BYTES:
        raise SizeLimitExceeded(
            f"grading to n_max = {n_max} needs a {m} x {m} triangular factor "
            f"({16 * m * m / 2**20:.0f} MiB), over the limit of "
            f"{MAX_FACTOR_BYTES / 2**20:.0f} MiB"
        )
    out = np.zeros(n_max + 1)
    # a zero defect rank leaves every coefficient empty, so no terms
    terms = [(np.array(key), a.conj().T) for key, a in series.coeffs.items() if np.any(a)]
    if not terms:
        return out

    levels = [enumerate_degree(k.d, s) for s in range(n_max + 1)]
    monomials = [alpha for level in levels for alpha in level]
    index = {alpha.entries: i for i, alpha in enumerate(monomials)}
    a_alpha = np.array([k.a_of(alpha) for alpha in monomials])
    exps = np.array([alpha.entries for alpha in monomials])
    starts = np.cumsum([0] + [len(level) for level in levels])
    src_block = np.arange(r_src)[None, :, None]
    tgt_block = np.arange(r_tgt)[None, None, :]

    # slabs of at most `limits` rows (or one monomial), merged `limits`
    # columns at a time: a QR input holds about 2 m^2 / 3 entries at most
    widths = m - starts[:-1] * r_tgt
    limits = np.clip(m * m // (3 * widths), 1, widths)
    r = np.zeros((m, m), dtype=complex)
    for slab in _slabs(starts, r_src, limits):
        low = slab[-1][0]
        lo = starts[low] * r_tgt
        buf = np.zeros((r_src * sum(stop - first for _, first, stop in slab), m - lo),
                       dtype=complex)
        top = 0
        for s, first, stop in slab:
            src = np.arange(first, stop)
            rows = top + r_src * np.arange(len(src))[:, None, None] + src_block
            top += r_src * len(src)
            for gamma, ah in terms:
                if s + gamma.sum() > n_max:
                    continue
                tgt = np.array([index[tuple(e)] for e in (exps[first:stop] + gamma).tolist()])
                f = np.sqrt(a_alpha[src] / a_alpha[tgt])
                buf[rows, (tgt * r_tgt - lo)[:, None, None] + tgt_block] = f[:, None, None] * ah
        _merge(r[lo:, lo:], buf, limits[low])

    for n in range(n_max + 1):
        size = starts[n + 1] * r_tgt
        out[n] = _numerical_ranks(r[None, :size, :size], tol.eps_rank)[0] / q(k.d, n)
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
