"""The curvature invariant by three routes, and their reconciliation.

Every scalar route reads one DegreeProfile (c_n and t_E(n), see there):
  series   : dim(Ran Delta) - sum_n c_n
  weighted : dim(Ran Delta) - sum_{i<=n} w_{i,n} t_E(i) (exact for
             polynomial symbols, cheaper than materializing the multiplier)
  integral : Monte-Carlo sphere average of dim(Ran Delta) - trace(theta theta*)
             at a fixed radius < 1 (radial limits are not computable; the
             radius is reported, and the exact same-radius average
             sum_n c_n r^{2n} quantifies what the truncation loses)

The purity-gated integer route dim(Ran Delta) - fd closes the loop.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import CharacteristicSeries, _theta_map, sample_ball_points
from .comb import multinomial, q
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
    "DegreeProfile",
    "IntegralEstimate",
    "CurvatureReport",
    "ReconcileCheck",
    "ReconcileVerdict",
    "theta_trace_E_normalized",
    "curvature_weighted",
    "curvature_integral",
    "curvature_pure",
    "ordering_rows",
    "reconcile",
]


@dataclass(frozen=True)
class DegreeProfile:
    """c[n] = sum_{|gamma|=n} trace(A_gamma A_gamma*) / (q_{d-1}(n) binom(n, gamma))
    for n = 0..n_theta: the degree contributions to trace(dPsi(M M*)) and the
    coefficients of the exact sphere average of trace(theta theta*) in r^2
    (the sphere integral of |z^gamma|^2 is 1 / (q_{d-1} binom)).

    t_e[n] = trace(M M* E_n) / q_{d-1}(n) = sum_{i<=n} a_{n-i} c_i / a_n for
    n = 0..n_max.  Exact for polynomial symbols once n_theta covers the
    degree; otherwise a partial sum with the cutoff noted by the caller."""

    kernel: KernelSpec
    c: np.ndarray
    t_e: np.ndarray

    @classmethod
    def build(cls, series: CharacteristicSeries, k: KernelSpec, n_max: int = 0) -> DegreeProfile:
        """The one pass over the Taylor coefficients.  Raises HorizonExceeded
        when n_max lies beyond the kernel horizon."""
        if n_max > k.N:
            raise HorizonExceeded(f"degree {n_max} beyond kernel horizon {k.N}")
        c = np.zeros(series.n_theta + 1)
        for key in series.coeffs:
            n = sum(key)
            t = series.coeff_gram_trace(key)
            if t:
                c[n] += t / (q(k.d - 1, n) * multinomial(key))
        t_e = np.empty(n_max + 1)
        for n in range(n_max + 1):
            m = min(n, series.n_theta)
            t_e[n] = float(np.dot(k.a[n - m : n + 1][::-1], c[: m + 1]) / k.a[n])
        return cls(kernel=k, c=c, t_e=t_e)

    @property
    def series_value(self) -> float:
        """Partial sum (up to the series horizon) of trace(dPsi(M M*)); it is
        non-decreasing in the horizon."""
        return float(np.sum(self.c))

    def sphere_average(self, radius: float) -> float:
        """Exact sphere average of trace(theta theta*) at the given radius:
        sum_n c_n r^{2n}."""
        return float(np.dot(self.c, radius ** (2 * np.arange(len(self.c)))))

    @property
    def dpsi_partial(self) -> np.ndarray:
        """sum_{i<=n} c_i for n = 0..n_max."""
        cum = np.cumsum(self.c)
        return cum[np.minimum(np.arange(len(self.t_e)), len(cum) - 1)]

    @property
    def t_p(self) -> np.ndarray:
        """trace(M M* P_n) / q_d(n) = sum_{i<=n} q_{d-1}(i) t_E(i) / q_d(n)."""
        d = self.kernel.d
        n = range(len(self.t_e))
        return np.cumsum(np.array([q(d - 1, i) for i in n]) * self.t_e) / np.array(
            [q(d, i) for i in n]
        )


def theta_trace_E_normalized(series: CharacteristicSeries, k: KernelSpec, n: int) -> float:
    """trace(M M* E_n) / q_{d-1}(n): the degree-n entry of the profile's t_e."""
    return float(DegreeProfile.build(series, k, n).t_e[n])


def curvature_weighted(profile: DegreeProfile, rank_delta: int) -> np.ndarray:
    """K_weighted(n) = dim(Ran Delta) - sum_{i<=n} w_{i,n} t_E(i)
    for n = 0..n_max."""
    out = np.empty(len(profile.t_e))
    for n in range(len(out)):
        row = weights(profile.kernel, n).w
        out[n] = rank_delta - float(np.dot(row, profile.t_e[: n + 1]))
    return out


def ordering_rows(profile: DegreeProfile) -> list[dict]:
    """Finite-n monitoring table: normalized E-trace, normalized P-trace and
    the dPsi partial sum per degree n = 0..n_max."""
    return [
        {"n": n, "t_e_normalized": float(te), "t_p_normalized": float(tp), "dpsi_partial": dp}
        for n, (te, tp, dp) in enumerate(zip(profile.t_e, profile.t_p, profile.dpsi_partial))
    ]


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


def curvature_pure(
    pkg: DefectPackage,
    series: CharacteristicSeries,
    profile: DegreeProfile,
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
    k_series = pkg.rank_delta - profile.series_value
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

