"""Fibre dimension of the range of the characteristic function.

Two estimators: the maximal numerical rank of theta(z) over sampled ball
points (the rank of an analytic matrix function is generically maximal and
can only drop on thin sets), and the graded-dimension quotient
dim(P_n Ran M_theta) / q_d(n), whose trend recovers the same number.

Every graded dimension comes from one triangular factor: the multiplier
truncated at degree n is a leading block of rows of the one truncated at
n_max, so its rank is that of a leading block of R, where M_{n_max}* = QR.
R is built without forming the multiplier, in one ascending sweep over
source degrees: the rows of source degree s reach only the target degrees
s..s+g (theta of degree g), so each degree is folded once into a sliding
triangle on those columns, and R is banded.
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


# Column panel of the structured fold: reflectors are made and applied this
# many columns at a time.
_PANEL = 32


def _fold(t: np.ndarray, rows: np.ndarray) -> None:
    """Overwrite the square upper triangular t, in place, with a triangular
    factor of [t ; rows]; rows is overwritten too.

    A t of at most four panels takes one np.linalg.qr of [t ; rows], where
    the call overhead of the panels would outweigh the flops they save.
    Larger ones take a Householder QR that keeps t's structure: the
    reflector of column j mixes row j of t with `rows` and no other row of
    t, so its vector is e_j over t and v_j over rows, and the rows of t
    stay the pivot rows.  _PANEL columns at a time, the panel's triangle
    and rows go to np.linalg.qr (mode "raw", which returns the v_j and the
    scalars tau_j), and the block reflector I - V T V* with V = [I ; v]
    updates the trailing columns at once.  T is upper triangular with T^-1 = strict
    upper part of v* v + diag(1 / tau).  A column with nothing to move
    (a zero column under a real diagonal) gets tau_j = 0 and v_j = 0, a
    reflector that is the identity: its row of T* V* B is set to zero, so
    its row of t stays as it was, a zero row included."""
    n = t.shape[1]
    if n <= 4 * _PANEL:
        t[...] = np.linalg.qr(np.vstack([t, rows]), mode="r")
        return
    for j in range(0, n, _PANEL):
        e = min(j + _PANEL, n)
        h, tau = np.linalg.qr(np.vstack([t[j:e, j:e], rows[:, j:e]]), mode="raw")
        h = h.T
        t[j:e, j:e] = np.triu(h[: e - j])
        if e == n:
            return
        live = tau != 0
        v = h[e - j :]
        tinv = np.triu(v.conj().T @ v, 1)
        np.fill_diagonal(tinv, 1 / np.where(live, tau, 1))
        # y = T* V* B for the trailing columns B of [t ; rows]
        y = np.linalg.solve(tinv.conj().T, t[j:e, e:] + v.conj().T @ rows[:, e:])
        y[~live] = 0
        t[j:e, e:] -= y
        rows[:, e:] -= v @ y


def _invert_upper(t: np.ndarray) -> None:
    """Overwrite the invertible upper triangular t with its inverse, in
    place: the halves first, then T12 <- -T11^-1 T12 T22^-1.  Blocks of at
    most 64 rows go to np.linalg.inv, whose LU of a triangular matrix takes
    no row swaps, so the result stays upper triangular."""
    n = len(t)
    if n <= 64:
        t[...] = np.linalg.inv(t)
        return
    h = n // 2
    _invert_upper(t[:h, :h])
    _invert_upper(t[h:, h:])
    t[:h, h:] = -(t[:h, :h] @ t[:h, h:]) @ t[h:, h:]


def _squared_column_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each column, without a temporary of a's
    size."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return sum(np.einsum("ij,ij->j", p, p) for p in parts)


def _leading_ranks(r: np.ndarray, sizes, eps_rank: float) -> np.ndarray:
    """_numerical_ranks of each leading block R_n = r[:m_n, :m_n] of the
    square upper triangular r (m_n in sizes), with an SVD only for the
    blocks that bounds cannot decide.

    Keep the columns S whose diagonal entry exceeds eps_rank times the
    largest column norm, and let S_n be those before m_n, rho_n of them.
    R[S, S] is upper triangular with a nonzero diagonal, R[S_n, S_n] is its
    leading block, and every bound below is nested in n:

    * Large side: sigma_rho(R_n) >= sigma_min(R[S_n, S_n]) >= 1 /
      ||R[S_n, S_n]^-1||_F.  The leading block of a triangular inverse is
      the inverse of the leading block, so one inverse of R[S, S] gives the
      bound for every n through a cumulative sum of squared column norms.
    * Small side: for a dropped column a_j, x_j = R[S_<j, S_<j]^-1
      a_j[S_<j] comes from the same inverse.  Replacing each dropped column
      of R_n by R[:, S_<j] x_j leaves a matrix of rank rho_n, so
      sigma_{rho+1}(R_n) <= sqrt(sum over dropped j < m_n of
      ||a_j - R[:, S_<j] x_j||^2), whatever the x_j.  That residual is a
      difference of nearly equal vectors, so each term also carries the
      rounding bound gamma (|a_j| + |R| |x_j|) of the product that forms it.
    * sigma_1(R_n) lies between the largest column norm of R_n and its
      Frobenius norm.

    A block's rank is rho_n when the small side is at most eps_rank / 2
    times the largest column norm and the large side at least 2 eps_rank
    times the Frobenius norm: then sigma_{rho+1} is at most half the
    threshold eps_rank sigma_1 and sigma_rho at least twice it.  The
    factor 2 is a margin for rounding, as in the conditioning gate of
    charfn: there the computed inverse is accurate to about kappa u <=
    u / (2 eps_rank) relative (u the unit roundoff), and the singular
    values an SVD computes carry an error far below eps_rank sigma_1, so
    the SVD would have counted rho_n too.  Every other block, a zero one
    included, takes the SVD; so does each block whose bounds overflow,
    since NaN and inf pass no test."""
    m = len(r)
    # 2 (m + 2) u >= sqrt(2) gamma_{m+2}, which bounds the rounding of a
    # complex product a - R x of inner length up to m (u the unit roundoff)
    gamma = (m + 2) * np.finfo(float).eps
    col2 = _squared_column_norms(r)
    keep = np.abs(np.diagonal(r)) > eps_rank * np.sqrt(col2.max())
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    with np.errstate(all="ignore"):
        inv = r[np.ix_(kept, kept)]
        _invert_upper(inv)
        inv2 = np.cumsum(_squared_column_norms(inv))
        x = np.zeros((m, len(dropped)), dtype=complex)
        x[kept] = inv @ r[np.ix_(kept, dropped)]
        del inv
        res = r[:, dropped]
        slack = gamma * (np.abs(res) + np.abs(r) @ np.abs(x))
        res -= r @ x
        bound = np.sqrt(_squared_column_norms(res)) + np.sqrt(_squared_column_norms(slack))
        small2 = np.cumsum(bound**2)
    fro2 = np.cumsum(col2)
    colmax2 = np.maximum.accumulate(col2)

    out = np.empty(len(sizes), dtype=int)
    for i, size in enumerate(sizes):
        rho, n_dropped = np.searchsorted(kept, size), np.searchsorted(dropped, size)
        large_ok = rho == 0 or 4 * eps_rank**2 * fro2[size - 1] * inv2[rho - 1] <= 1
        small_ok = n_dropped == 0 or 4 * small2[n_dropped - 1] <= eps_rank**2 * colmax2[size - 1]
        if fro2[size - 1] > 0 and large_ok and small_ok:
            out[i] = rho
        else:
            out[i] = _numerical_ranks(r[None, :size, :size], eps_rank)[0]
    return out


def _graded_factor(series: CharacteristicSeries, k: KernelSpec, n_max: int) -> np.ndarray:
    """Upper triangular R with R* R = M M*, M the multiplier by theta from
    source to target degree n_max, both sides ordered by degree.

    The rows of M* of source degree s reach only target degrees s..s+g,
    g = min(largest |gamma| of a nonzero coefficient A_gamma, n_max).  So
    the source degrees are swept once, in ascending order, each folded into
    the window of R on the columns of degrees s..s+g.  R holds the window
    in place: the rows of the degrees above s start as zeros.  Once degree
    s is folded no later row reaches its columns, so its rows of R are
    final, and the window slides on.  Row block t of R is therefore zero
    past degree t + g.

    The rows of source monomial beta are C D_beta: C = [A_gamma*] over the
    gamma with s + |gamma| <= n_max, side by side and by degree, and D_beta
    scales block gamma by sqrt(a_beta / a_(beta+gamma)) and places it on
    the columns of beta + gamma.  C is a leading block of the columns of
    the C of degree 0, so when C has fewer columns than rows, the same
    leading block of the triangular factor of that one matrix replaces it.
    That leaves every (C D_beta)* (C D_beta), and so R* R, as it was.

    A degree's rows are built and folded (_fold) in chunks of whole source
    monomials, of about 2 m^2 / 3 entries at most (m = q_d(n_max)
    rank_delta), or one monomial.  The fold never factors a chunk on its
    own: the window's zero rows stay the pivot rows, so a column with
    nothing below it keeps an exactly zero row of R, which _leading_ranks
    reads."""
    r_tgt, r_src = series.rank_delta, series.rank_d
    levels = [enumerate_degree(k.d, s) for s in range(n_max + 1)]
    monomials = [alpha for level in levels for alpha in level]
    index = {alpha.entries: i for i, alpha in enumerate(monomials)}
    a_alpha = np.array([k.a_of(alpha) for alpha in monomials])
    exps = np.array([alpha.entries for alpha in monomials])
    # degree s is numbered starts[s] to starts[s + 1] - 1
    starts = np.cumsum([0] + [len(level) for level in levels])
    m = starts[-1] * r_tgt
    r = np.zeros((m, m), dtype=complex)

    nonzero = [key for key, a in series.coeffs.items() if np.any(a)]
    band = min(max(map(sum, nonzero)), n_max)
    # the coefficients by degree, up to n_max: those that a source monomial
    # of degree s reaches, |gamma| <= n_max - s, come first
    keys = sorted((key for key in nonzero if sum(key) <= n_max), key=sum)
    if not keys:
        return r
    gammas = np.array(keys)
    degrees = gammas.sum(axis=1)
    # C of degree 0 and its triangular factor: the first K columns of the
    # factor, on its first K rows, have the Gram matrix of the first K of C
    c = np.hstack([series.coeffs[key].conj().T for key in keys]).reshape(r_src, len(keys), r_tgt)
    c_factor = np.linalg.qr(c.reshape(r_src, -1), mode="r").reshape(-1, len(keys), r_tgt)
    for s in range(n_max + 1):
        reach = np.searchsorted(degrees, n_max - s, side="right")
        if reach == 0:
            continue
        c_s = c_factor[: reach * r_tgt] if reach * r_tgt < r_src else c
        height = len(c_s)
        lo, hi = starts[s] * r_tgt, starts[min(s + band, n_max) + 1] * r_tgt
        per_chunk = max(2 * m * m // (3 * (hi - lo) * height), 1)
        for first in range(starts[s], starts[s + 1], per_chunk):
            stop = min(first + per_chunk, starts[s + 1])
            sums = (exps[first:stop, None] + gammas[None, :reach]).reshape(-1, k.d).tolist()
            tgt = np.array([index[tuple(e)] for e in sums]).reshape(stop - first, reach)
            f = np.sqrt(a_alpha[first:stop, None] / a_alpha[tgt])
            rows = height * np.arange(stop - first)[:, None, None, None] + np.arange(height)[:, None, None]
            cols = (tgt * r_tgt - lo)[:, None, :, None] + np.arange(r_tgt)
            chunk = np.zeros((height * (stop - first), hi - lo), dtype=complex)
            chunk[rows, cols] = f[:, None, :, None] * c_s[:, :reach]
            _fold(r[lo:hi, lo:hi], chunk)
    return r


def fd_by_grading(series: CharacteristicSeries, k: KernelSpec, n_max: int) -> np.ndarray:
    """dim(P_n Ran M_theta) / q_d(n) for n = 0..n_max, from one triangular
    factor.

    Order the target space of M = M_theta by degree.  A source monomial of
    degree s only reaches target degrees >= s, so M_n, the multiplier
    truncated to source and target degree n, is the first m_n =
    q_d(n) rank_delta rows of M_{n_max} with zero columns appended.  If
    M_{n_max}* = QR with R upper triangular, M_n therefore has the singular
    values of the leading block R[:m_n, :m_n], and dim(P_n Ran M_theta) is
    its numerical rank (singular values above eps_rank times the largest,
    the rule applied to M_n itself, with the tolerances the series
    records).

    R depends only on M M* = R* R, so it is built without the multiplier
    (_graded_factor): the rows of M* are swept by source degree, 0 to
    n_max, each degree folded once into a sliding triangle over the target
    degrees its rows reach, s to s + g for theta of degree g.

    Every degree's rank then comes from one shared certificate instead of
    one SVD per degree (_leading_ranks).  The columns S of R whose diagonal
    entry exceeds eps_rank times the largest column norm give the
    candidate rank rho_n of R[:m_n, :m_n]: those before m_n.  One inverse of
    R[S, S] bounds that block's rho_n-th singular value from below and the
    residuals of the other columns bound the next one from above, for
    every n at once, since R is triangular.  A degree gets rho_n when both
    bounds sit at least a factor 2 clear of the threshold, a margin for
    rounding; every other degree, a zero block included, takes the SVD of
    its leading block.  So every rank is the one that SVD gives.

    Peak memory is about 2.5 times the 16 m^2 bytes of R (m = q_d(n_max)
    rank_delta; 2.45 to 2.56 traced on the graded-fd benchmark requests).
    Building R holds R, a chunk of rows of at most 2 m^2 / 3 entries and
    the fold's temporaries; the certificate holds beside R the inverse of
    R[S, S] (no larger than R), then |R| (half of R), and the columns
    outside S.  A request whose R would exceed MAX_FACTOR_BYTES raises
    SizeLimitExceeded before anything is allocated.
    A zero defect rank leaves Ran M_theta = 0 and gives zeros; a negative
    n_max raises ValueError."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > k.N:
        raise HorizonExceeded(f"n_max = {n_max} beyond kernel horizon {k.N}")
    m = q(k.d, n_max) * series.rank_delta
    if 16 * m * m > MAX_FACTOR_BYTES:
        raise SizeLimitExceeded(
            f"grading to n_max = {n_max} needs a {m} x {m} triangular factor "
            f"({16 * m * m / 2**20:.0f} MiB), over the limit of "
            f"{MAX_FACTOR_BYTES / 2**20:.0f} MiB"
        )
    # a zero defect rank leaves every coefficient empty
    if not any(np.any(a) for a in series.coeffs.values()):
        return np.zeros(n_max + 1)
    counts = np.array([q(k.d, n) for n in range(n_max + 1)])
    r = _graded_factor(series, k, n_max)
    return _leading_ranks(r, counts * series.rank_delta, series.tol.eps_rank) / counts


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
