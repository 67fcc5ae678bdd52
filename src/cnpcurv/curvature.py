"""The curvature invariant by three routes, and their reconciliation.

Every scalar route reads one DegreeProfile (c_n and t_E(n), see there),
built from the traces u_m = tr sigma^m(Delta^2) of the walk that sums the
purity series, not from the Taylor coefficients:
  series   : dim(Ran Delta) - sum_n c_n
  weighted : dim(Ran Delta) - sum_{i<=n} w_{i,n} t_E(i) (exact for
             polynomial symbols, cheaper than materializing the multiplier)
  integral : sphere average of dim(Ran Delta) - trace(theta theta*) at a
             fixed radius < 1 (radial limits are not computable; the radius
             is reported, and the exact same-radius average sum_n c_n r^{2n}
             quantifies what the truncation loses).  Where theta is
             certified polynomial (charfn.termination_bound) and d <= 2, an
             exact product rule on the sphere; elsewhere Monte Carlo with a
             standard error.  It evaluates theta pointwise and shares no
             code with the profile, so it stays an independent check of it.

The purity-gated integer route dim(Ran Delta) - fd closes the loop.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charfn import _theta_map, sample_ball_points, theta_horizon
from .comb import q
from .errors import (
    HorizonExceeded,
    IntegerMismatch,
    NotPure,
    ReconcileFailure,
)
from .kernel import KernelSpec, weights
from .tuples import DefectPackage, purity

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
    def build(
        cls,
        pkg: DefectPackage,
        k: KernelSpec,
        n_max: int = 0,
        n_theta: int | None = None,
        traces: np.ndarray | None = None,
    ) -> DegreeProfile:
        """c_n for n <= n_theta (charfn.theta_horizon) from u_m = tr sigma^m(Delta^2).

        For commuting T, I - B(z) = 1 - k_N(z.T*) with k_N(x) = sum_{1<=j<=n_op}
        b_j x^j, and rank_delta - tr theta(z) theta(z)* = (1 - k_N(|z|^2))
        ||(I - B(z))^{-*} Delta||_F^2.  Averaging over the sphere |z|^2 = x gives
            rank_delta [n=0] - c_n = [x^n] (1 - k_N(x)) sum_m at_m^2 u_m x^m / q_{d-1}(m)
        with at the reciprocal series of 1 - k_N (at_m = a_m for m <= n_op).
        traces holds u_0..u_{n_theta} or more from the purity walk
        (PurityReport.traces); when None, purity is run here to get them.
        Raises ValueError when n_max is negative and HorizonExceeded when it
        lies beyond the kernel horizon."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if n_max > k.N:
            raise HorizonExceeded(f"degree {n_max} beyond kernel horizon {k.N}")
        n_theta = theta_horizon(pkg, k, n_theta)
        if traces is None:
            traces = purity(pkg, k, n_traces=n_theta).traces
        b = k.b[1 : pkg.n_op + 1]
        at = k.a_truncated(pkg.n_op, n_theta)
        g = at**2 * traces[: n_theta + 1] / np.array([q(k.d - 1, m) for m in range(n_theta + 1)])
        c = -np.convolve(np.concatenate(([1.0], -b)), g)[: n_theta + 1]
        c[0] += pkg.rank_delta
        t_e = np.empty(n_max + 1)
        for n in range(n_max + 1):
            m = min(n, n_theta)
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


def theta_trace_E_normalized(profile: DegreeProfile, n: int) -> float:
    """trace(M M* E_n) / q_{d-1}(n): the degree-n entry of the profile's t_e."""
    return float(profile.t_e[n])


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


# Rounding-level floor, per unit of dim(Ran Delta), of a sphere average that
# should be exact: reconcile adds it to three standard errors, and the
# product rule must meet it to certify itself.
NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class IntegralEstimate:
    estimate: float
    stderr: float
    radius: float
    n_samples: int           # points used (for the product rule: both rules)
    seed: int
    # "monte-carlo" or "product-rule"; reports print it only for the rule
    method: str = field(default="monte-carlo", metadata={"omit_default": True})


def _sphere_rule(d: int, degree: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of a product rule on the sphere of the given radius
    in C^d, d = 1 or 2, exact against the normalized surface measure for
    every z^gamma conj(z)^gamma' with |gamma|, |gamma'| <= degree.

    M = degree + 1 equispaced phases per coordinate annihilate every such
    monomial with gamma != gamma' and integrate the rest exactly.  For d = 2,
    t = |z_1|^2 / r^2 is uniform on [0, 1], and what the phases keep,
    r^{2|gamma|} t^{gamma_1} (1 - t)^{gamma_2}, has degree at most `degree`
    in t, which ceil((degree + 1) / 2) Gauss-Legendre nodes integrate
    exactly (Trefethen and Weideman, SIAM Review 56(3), 2014; Rudin,
    Function Theory in the Unit Ball of C^n, 1980, 1.4)."""
    m = degree + 1
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    if d == 1:
        return radius * phases[:, None], np.full(m, 1.0 / m)
    x, w = np.polynomial.legendre.leggauss((degree + 2) // 2)
    t = (1.0 + x) / 2.0
    z1 = np.sqrt(t)[:, None, None] * phases[None, :, None]
    z2 = np.sqrt(1.0 - t)[:, None, None] * phases[None, None, :]
    points = radius * np.stack(np.broadcast_arrays(z1, z2), axis=-1).reshape(-1, 2)
    return points, np.repeat(w / (2.0 * m * m), m * m)


def _frob_sq(zc, theta):
    """||theta(z)||_F^2 per point: the integral's reduction of _theta_map."""
    return np.sum(np.abs(theta) ** 2, axis=(1, 2))


def curvature_integral(
    pkg: DefectPackage,
    k: KernelSpec,
    radius: float = 0.999,
    n_samples: int = 4000,
    seed: int = 7,
    degree: int | None = None,
) -> IntegralEstimate:
    """Sphere average of dim(Ran Delta) - trace(theta theta*) at the given
    radius, from at most n_samples evaluations of theta.

    degree, when given, is a degree bound that certifies theta polynomial
    (charfn.termination_bound).  Then, for d <= 2, the product rules of
    that degree and of degree + 1 run, if together they take at most
    n_samples points.  Both are exact for a polynomial of that degree, so
    when they agree within NOISE_FLOOR * max(1, dim) their value is returned
    with stderr 0 and method "product-rule"; a disagreement means the bound
    was too small (numerical nilpotency), and Monte Carlo runs instead.
    Monte Carlo averages n_samples random points of the sphere and gives a
    standard error; it is deterministic under a fixed seed.
    Raises NearSingular as the theta map does, under the package's gate."""
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if degree is not None and k.d <= 2:
        (p_low, w_low), (p_high, w_high) = (
            _sphere_rule(k.d, n, radius) for n in (degree, degree + 1)
        )
        used = len(w_low) + len(w_high)
        if used <= n_samples:
            frob_sq = _theta_map(pkg, k, np.concatenate([p_low, p_high]), _frob_sq)
            low = float(w_low @ frob_sq[: len(w_low)])
            high = float(w_high @ frob_sq[len(w_low) :])
            if abs(low - high) <= NOISE_FLOOR * max(1.0, float(pkg.rank_delta)):
                return IntegralEstimate(
                    estimate=pkg.rank_delta - high,
                    stderr=0.0,
                    radius=radius,
                    n_samples=used,
                    seed=seed,
                    method="product-rule",
                )
    points = sample_ball_points(k.d, n_samples, radius, seed)
    frob_sq = _theta_map(pkg, k, points, _frob_sq)
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
    is_polynomial: bool,
    profile: DegreeProfile,
    fd_estimate: int,
    purity_residual: float,
) -> int:
    """Integer curvature dim(Ran Delta) - fd for pure tuples.

    Raises NotPure when the purity residual exceeds the package's gate and
    IntegerMismatch when the series estimate of a polynomial theta
    (charfn.termination_bound) sits far from an integer even though purity
    holds (horizons inconsistent)."""
    eps_pure = pkg.tol.eps_pure
    if purity_residual > eps_pure:
        raise NotPure(f"purity residual {purity_residual:.3e} exceeds {eps_pure:.1e}")
    k_series = pkg.rank_delta - profile.series_value
    if is_polynomial and abs(k_series - round(k_series)) > 0.05:
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
    theta_degree_bound: int | None    # charfn.termination_bound
    n_theta: int
    n_op: int
    tail_bound: float
    convergence: list[dict] = field(default_factory=list)
    verdict: ReconcileVerdict | None = None


def reconcile(report: CurvatureReport, pkg: DefectPackage, k: KernelSpec) -> ReconcileVerdict:
    """Consistency verdict over the populated estimators, under the
    package's tolerances.

    Hard checks (failures raise ReconcileFailure):
      * the package was built against this kernel table;
      * every estimator lies in [-eps, dim + eps];
      * the integral matches the exact same-radius average from the
        coefficients within 3 standard errors plus NOISE_FLOOR * max(1, dim)
        (closed-form integrands are constant on the sphere, so the sample
        spread can collapse to rounding level; the product rule has
        stderr 0 and meets the floor alone);
      * the radius-truncation gap |K_series - K_at_radius| stays within its
        a-priori bound dim * (1 - r^{2 n_theta});
      * for a polynomial theta over a constant-coefficient kernel, with the
        weighted table past the termination bound, the weighted route agrees
        with the series route to 1e-9; for slowly converging kernels only
        the trend toward K_series is checked, since no rate is available at
        finite n;
      * per-degree, normalized E-traces dominate the dPsi partial sums
        (asserted only for non-increasing a-tables, where it is a theorem at
        finite n).

    Recorded, never asserted (the two sides meet only in the limit):
      * finite_horizon:series_vs_fd_eval, for a pure tuple: trace dPsi
        against fd_eval within 0.05; over a slowly decaying b-table they
        stay apart by the b-mass the horizon leaves out;
      * conjecture_gap, the averaged P-trace quotient against the series
        value: at any finite degree the quotient lags the other two routes
        whenever the E-trace sequence is still increasing.
    """
    if pkg.kernel.fingerprint() != k.fingerprint():
        raise ReconcileFailure("package built against a different kernel table")

    tol = pkg.tol
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

    floor = NOISE_FLOOR * max(1.0, float(dim))
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
    radius_bound = dim * (1.0 - r ** (2 * report.n_theta)) + tol.eps_id
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
    if report.is_polynomial and constant_a and len(report.k_weighted) > report.theta_degree_bound:
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

    a_nonincreasing = bool(np.all(np.diff(k.a[: report.n_theta + 1]) <= 1e-15))
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

    if report.fd_eval is not None and report.purity_residual <= tol.eps_pure:
        checks.append(
            ReconcileCheck(
                name="finite_horizon:series_vs_fd_eval",
                value=report.trace_dpsi_series,
                reference=float(report.fd_eval),
                tolerance=0.05,
                ok=abs(report.trace_dpsi_series - report.fd_eval) <= 0.05,
                asserted=False,
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

