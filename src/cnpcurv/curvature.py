"""The curvature invariant by three routes, and their reconciliation.

Routes:
  series   : dim(Ran Delta) - sum over coefficients of
             trace(A_gamma A_gamma*) / (q_{d-1}(|gamma|) binom(|gamma|, gamma))
  weighted : dim(Ran Delta) - sum_i w_{i,n} trace(M M* E_i)/q_{d-1}(i),
             per-degree traces taken from the coefficient formula (exact for
             polynomial symbols, cheaper than materializing the multiplier)
  integral : Monte-Carlo sphere average of dim(Ran Delta) - trace(theta theta*)
             at a fixed radius < 1 (radial limits are not computable; the
             radius is reported, and the exact same-radius average from the
             coefficients quantifies what the truncation loses)

The purity-gated integer route dim(Ran Delta) - fd closes the loop.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import CharacteristicSeries, _theta_map, sample_ball_points
from .comb import enumerate_degree, multinomial, q
from .config import DEFAULT, Tolerances
from .errors import (
    HorizonExceeded,
    IntegerMismatch,
    NotPure,
    ReconcileFailure,
)
from .kernel import KernelSpec, weights
from .tuples import DefectPackage

__all__ = [
    "IntegralEstimate",
    "CurvatureReport",
    "ReconcileCheck",
    "ReconcileVerdict",
    "trace_dpsi_series",
    "dpsi_series_by_degree",
    "theta_trace_E_normalized",
    "curvature_weighted",
    "curvature_integral",
    "exact_sphere_average",
    "curvature_pure",
    "reconcile",
]


def dpsi_series_by_degree(series: CharacteristicSeries, k: KernelSpec) -> np.ndarray:
    """c_n = sum_{|gamma|=n} trace(A_gamma A_gamma*) /
    (q_{d-1}(n) binom(n, gamma)) for n = 0..n_theta.

    These are the degree contributions to trace(dPsi(M M*)) and, at the same
    time, the coefficients of the exact sphere average of trace(theta theta*)
    as a power series in r^2 (the sphere integral of |z^gamma|^2 being
    1 / (q_{d-1} binom))."""
    c = np.zeros(series.n_theta + 1)
    for key, a in series.coeffs.items():
        n = sum(key)
        t = float(np.sum(np.abs(a) ** 2))
        if t:
            c[n] += t / (q(k.d - 1, n) * multinomial(key))
    return c


def trace_dpsi_series(series: CharacteristicSeries, k: KernelSpec) -> float:
    """Partial sum (up to the series horizon) of trace(dPsi(M M*)); it is
    non-decreasing in the horizon."""
    return float(np.sum(dpsi_series_by_degree(series, k)))


def theta_trace_E_normalized(series: CharacteristicSeries, k: KernelSpec, n: int) -> float:
    """trace(M M* E_n) / q_{d-1}(n) from the Taylor coefficients:

        sum_{i<=n} sum_{|alpha|=i} (a_{n-i}/a_n) (1/q_{d-1}(i))
                   trace(A_alpha A_alpha*) / binom(i, alpha).

    Exact for polynomial symbols once n_theta covers the degree; otherwise a
    partial sum with the cutoff noted by the caller."""
    if n > k.N:
        raise HorizonExceeded(f"degree {n} beyond kernel horizon {k.N}")
    total = 0.0
    for i in range(min(n, series.n_theta) + 1):
        ratio = float(k.a[n - i] / k.a[n]) / q(k.d - 1, i)
        for alpha in enumerate_degree(k.d, i):
            t = series.coeff_gram_trace(alpha)
            if t:
                total += ratio * t / multinomial(alpha)
    return total


def curvature_weighted(
    pkg: DefectPackage,
    k: KernelSpec,
    series: CharacteristicSeries,
    n_max: int,
) -> np.ndarray:
    """K_weighted(n) = dim(Ran Delta) - sum_{i<=n} w_{i,n} t_E(i)/q_{d-1}(i)
    for n = 0..n_max."""
    te = [theta_trace_E_normalized(series, k, i) for i in range(n_max + 1)]
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        row = weights(k, n).w
        out[n] = pkg.rank_delta - float(np.dot(row, te[: n + 1]))
    return out


@dataclass(frozen=True)
class IntegralEstimate:
    estimate: float
    stderr: float
    radius: float
    n_samples: int
    seed: int


def curvature_integral(
    pkg: DefectPackage,
    k: KernelSpec,
    radius: float = 0.999,
    n_samples: int = 4000,
    seed: int = 7,
    tol: Tolerances = DEFAULT,
) -> IntegralEstimate:
    """Monte-Carlo sphere average of dim(Ran Delta) - trace(theta theta*) at
    the given radius, with standard error; deterministic under a fixed seed."""
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    points = sample_ball_points(k.d, n_samples, radius, seed)
    frob_sq = _theta_map(
        pkg, k, points, lambda zc, theta: np.sum(np.abs(theta) ** 2, axis=(1, 2)), tol
    )
    vals = pkg.rank_delta - frob_sq
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return IntegralEstimate(
        estimate=float(vals.mean()),
        stderr=stderr,
        radius=radius,
        n_samples=n_samples,
        seed=seed,
    )


def exact_sphere_average(series: CharacteristicSeries, k: KernelSpec, radius: float) -> float:
    """Exact sphere average of trace(theta theta*) at the given radius,
    summed from the stored coefficients: sum_n c_n r^{2n}."""
    c = dpsi_series_by_degree(series, k)
    powers = radius ** (2 * np.arange(len(c)))
    return float(np.dot(c, powers))


def curvature_pure(
    pkg: DefectPackage,
    k: KernelSpec,
    series: CharacteristicSeries,
    fd_estimate: int,
    purity_residual: float,
    tol: Tolerances = DEFAULT,
) -> int:
    """Integer curvature dim(Ran Delta) - fd for pure tuples.

    Raises NotPure when the purity residual exceeds the gate and
    IntegerMismatch when the series estimate sits far from an integer even
    though purity holds (horizons inconsistent)."""
    if purity_residual > tol.eps_pure:
        raise NotPure(
            f"purity residual {purity_residual:.3e} exceeds {tol.eps_pure:.1e}"
        )
    k_series = pkg.rank_delta - trace_dpsi_series(series, k)
    if series.is_polynomial and abs(k_series - round(k_series)) > 0.05:
        raise IntegerMismatch(
            f"series curvature {k_series:.6f} is not near an integer although "
            "the tuple is pure and the series terminates"
        )
    return pkg.rank_delta - int(fd_estimate)


@dataclass(frozen=True)
class ReconcileCheck:
    name: str
    value: float
    reference: float
    tolerance: float
    ok: bool
    asserted: bool = True   # False: recorded as experimental data only


@dataclass(frozen=True)
class ReconcileVerdict:
    ok: bool
    checks: tuple[ReconcileCheck, ...]
    conjecture_gap: float     # | t_P(n_max)/q_d - series value |, data only


@dataclass
class CurvatureReport:
    """Everything the pipeline computed, in one place."""

    dim_ran_delta: int
    rank_d: int
    purity_residual: float
    purity_exact: bool
    trace_dpsi_series: float
    k_series: float
    k_weighted: np.ndarray
    k_integral: IntegralEstimate
    k_at_radius_exact: float          # dim - exact sphere average at radius
    k_pure: int | None
    fd_eval: int | None
    is_polynomial: bool
    theta_degree: int | None
    n_theta: int
    n_op: int
    tail_bound: float
    convergence: list[dict] = field(default_factory=list)
    verdict: ReconcileVerdict | None = None


def _ordering_rows(series: CharacteristicSeries, k: KernelSpec, n_max: int) -> list[dict]:
    """Finite-n monitoring table from the coefficient routes: normalized
    E-trace, normalized P-trace, and the dPsi partial sum per degree."""
    c = dpsi_series_by_degree(series, k)
    te = [theta_trace_E_normalized(series, k, n) for n in range(n_max + 1)]
    rows = []
    run_p = 0.0
    run_dpsi = 0.0
    for n in range(n_max + 1):
        run_p += q(k.d - 1, n) * te[n]
        run_dpsi += c[n] if n < len(c) else 0.0
        rows.append(
            {
                "n": n,
                "t_e_normalized": te[n],
                "t_p_normalized": run_p / q(k.d, n),
                "dpsi_partial": run_dpsi,
            }
        )
    return rows


def reconcile(
    report: CurvatureReport,
    series: CharacteristicSeries,
    pkg: DefectPackage,
    k: KernelSpec,
    tol: Tolerances = DEFAULT,
) -> ReconcileVerdict:
    """Consistency verdict over the populated estimators.

    Hard checks (failures raise ReconcileFailure):
      * series/package/kernel all refer to the same kernel table;
      * every estimator lies in [-eps, dim + eps];
      * the Monte-Carlo estimate matches the exact same-radius average from
        the coefficients within 3 standard errors (plus a machine-noise
        floor: closed-form integrands are constant on the sphere, so the
        sample spread can collapse to rounding level);
      * the radius-truncation gap |K_series - K_at_radius| stays within its
        a-priori bound dim * (1 - r^{2 n_theta});
      * for a terminated (polynomial) series over a constant-coefficient
        kernel the weighted route agrees with the series route to 1e-9; for
        slowly converging kernels only the trend toward K_series is checked,
        since no rate is available at finite n;
      * per-degree, normalized E-traces dominate the dPsi partial sums
        (asserted only for non-increasing a-tables, where it is a theorem at
        finite n).

    The gap between the averaged P-trace quotient and the series value is
    recorded as experimental data, never asserted: the quotient approaches
    the series value only in the limit, and at any finite degree it lags the
    other two routes whenever the E-trace sequence is still increasing.
    """
    if series.kernel_fingerprint != k.fingerprint() or pkg.kernel_fingerprint != k.fingerprint():
        raise ReconcileFailure("series/package built against a different kernel table")

    checks: list[ReconcileCheck] = []
    dim = report.dim_ran_delta
    eps_range = 1e-8

    for name, val in (
        ("k_series", report.k_series),
        ("k_weighted_last", float(report.k_weighted[-1])),
        ("k_integral", report.k_integral.estimate),
    ):
        checks.append(
            ReconcileCheck(
                name=f"range:{name}",
                value=val,
                reference=0.5 * dim,
                tolerance=0.5 * dim + eps_range,
                ok=-eps_range <= val <= dim + eps_range,
            )
        )

    floor = 1e-13 * max(1.0, float(dim))
    mc_tol = 3.0 * report.k_integral.stderr + floor
    mc_gap = abs(report.k_integral.estimate - report.k_at_radius_exact)
    checks.append(
        ReconcileCheck(
            name="integral_vs_series_at_radius",
            value=report.k_integral.estimate,
            reference=report.k_at_radius_exact,
            tolerance=mc_tol,
            ok=mc_gap <= mc_tol,
        )
    )

    r = report.k_integral.radius
    radius_bound = dim * (1.0 - r ** (2 * series.n_theta)) + tol.eps_id
    radius_gap = abs(report.k_series - report.k_at_radius_exact)
    checks.append(
        ReconcileCheck(
            name="radius_truncation",
            value=report.k_series,
            reference=report.k_at_radius_exact,
            tolerance=radius_bound,
            ok=radius_gap <= radius_bound,
        )
    )

    constant_a = bool(np.all(k.a == k.a[0]))
    kw_last = float(report.k_weighted[-1])
    kw_gap = abs(kw_last - report.k_series)
    if series.is_polynomial and constant_a and len(report.k_weighted) > (series.degree or 0):
        checks.append(
            ReconcileCheck(
                name="weighted_vs_series",
                value=kw_last,
                reference=report.k_series,
                tolerance=1e-9,
                ok=kw_gap <= 1e-9,
            )
        )
    else:
        early = float(report.k_weighted[min(2, len(report.k_weighted) - 1)])
        trend_ok = kw_gap <= abs(early - report.k_series) + tol.eps_id
        checks.append(
            ReconcileCheck(
                name="weighted_trend_toward_series",
                value=kw_last,
                reference=report.k_series,
                tolerance=abs(early - report.k_series) + tol.eps_id,
                ok=trend_ok,
            )
        )

    a_nonincreasing = bool(np.all(np.diff(k.a[: series.n_theta + 1]) <= 1e-15))
    for row in report.convergence:
        ok = row["t_e_normalized"] >= row["dpsi_partial"] - 1e-10
        checks.append(
            ReconcileCheck(
                name=f"ordering_e_vs_dpsi[n={row['n']}]",
                value=row["t_e_normalized"],
                reference=row["dpsi_partial"],
                tolerance=1e-10,
                ok=ok if a_nonincreasing else True,
                asserted=a_nonincreasing,
            )
        )

    conjecture_gap = abs(
        report.convergence[-1]["t_p_normalized"] - report.trace_dpsi_series
    ) if report.convergence else 0.0

    failing = [c for c in checks if c.asserted and not c.ok]
    verdict = ReconcileVerdict(ok=not failing, checks=tuple(checks), conjecture_gap=conjecture_gap)
    if failing:
        worst = failing[0]
        raise ReconcileFailure(
            f"check {worst.name}: value {worst.value!r} vs reference "
            f"{worst.reference!r} beyond tolerance {worst.tolerance!r}"
        )
    return verdict


def ordering_rows(series: CharacteristicSeries, k: KernelSpec, n_max: int) -> list[dict]:
    """Public wrapper for the finite-n monitoring table."""
    return _ordering_rows(series, k, n_max)
