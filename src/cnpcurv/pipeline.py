"""End-to-end orchestration: tuple + kernel -> full curvature report."""
from __future__ import annotations

from dataclasses import dataclass, replace

from .charfn import taylor, theta_horizon
from .config import DEFAULT, Tolerances
from .curvature import (
    CurvatureReport,
    DegreeProfile,
    curvature_integral,
    curvature_pure,
    curvature_weighted,
    ordering_rows,
    reconcile,
)
from .errors import IntegerMismatch, NotPure
from .fibredim import fd_by_grading, fd_report, innermult_consistency
from .kernel import KernelSpec
from .tuples import OperatorTuple, defect_package, purity

__all__ = ["RunSettings", "PipelineResult", "run_curvature"]


@dataclass(frozen=True)
class RunSettings:
    n_op: int | None = None       # defect series horizon (None: nilpotency default, >= b-support)
    n_theta: int | None = None    # profile and Taylor horizon (None: termination degree or n_op)
    n_max: int = 12               # weighted/ordering table depth
    radius: float = 0.999
    n_samples: int = 4000
    seed: int = 7
    fd_samples: int = 50
    fd_radius: float = 0.8
    tol: Tolerances = DEFAULT


@dataclass
class PipelineResult:
    report: CurvatureReport
    series: object
    profile: DegreeProfile
    pkg: object
    purity: object
    fd: object
    innermult: object | None


def run_curvature(t: OperatorTuple, k: KernelSpec, settings: RunSettings = RunSettings()) -> PipelineResult:
    """load -> defect -> purity and degree profile -> curvature -> taylor ->
    fd -> reconcile, collecting everything into a CurvatureReport.

    One sigma walk sums the purity series and gives the traces the degree
    profile is built from, once; the series, weighted, exact sphere-average,
    pure and monitoring routes all read it.  The Taylor series serves only
    the graded fibre dimension and the polynomial state."""
    tol = settings.tol
    pkg = defect_package(t, k, n_op=settings.n_op, tol=tol)
    n_theta = theta_horizon(pkg, k, settings.n_theta)
    pur = purity(t, k, pkg, n_traces=n_theta)
    profile = DegreeProfile.build(t, pkg, k, settings.n_max, n_theta, traces=pur.traces)
    series = taylor(pkg, k, n_theta=n_theta, tol=tol)
    dpsi = profile.series_value
    k_series = pkg.rank_delta - dpsi
    k_w = curvature_weighted(profile, pkg.rank_delta)
    k_int = curvature_integral(
        pkg, k,
        radius=settings.radius,
        n_samples=settings.n_samples,
        seed=settings.seed,
        tol=tol,
    )
    k_at_r = pkg.rank_delta - profile.sphere_average(settings.radius)

    fd_rep = fd_report(
        pkg, k,
        n_samples=settings.fd_samples,
        radius=settings.fd_radius,
        seed=settings.seed + 1,
        purity_residual=pur.purity_residual,
        tol=tol,
    )
    graded = fd_by_grading(series, k, min(settings.n_max, k.N), tol=tol)
    fd_rep = _with_grading(fd_rep, graded)

    rows = ordering_rows(profile)

    k_pure = None
    inner = None
    if pur.purity_residual <= tol.eps_pure:
        try:
            k_pure = curvature_pure(
                pkg, series, profile, fd_rep.fd_eval, pur.purity_residual, tol=tol
            )
        except (NotPure, IntegerMismatch):
            k_pure = None
        inner = innermult_consistency(
            fd_rep,
            dpsi,
            [row["t_p_normalized"] for row in rows],
            pur.purity_residual,
            tol=tol,
        )

    report = CurvatureReport(
        dim_ran_delta=pkg.rank_delta,
        rank_d=pkg.rank_d,
        purity_residual=pur.purity_residual,
        purity_exact=pur.exact,
        trace_dpsi_series=dpsi,
        k_series=k_series,
        k_weighted=k_w,
        k_integral=k_int,
        k_at_radius_exact=k_at_r,
        k_pure=k_pure,
        fd_eval=fd_rep.fd_eval,
        is_polynomial=series.is_polynomial,
        theta_degree=series.degree,
        n_theta=series.n_theta,
        n_op=pkg.n_op,
        tail_bound=pkg.tail_bound,
        convergence=rows,
    )
    report.verdict = reconcile(report, series, pkg, k, tol=tol)
    return PipelineResult(
        report=report, series=series, profile=profile, pkg=pkg, purity=pur, fd=fd_rep,
        innermult=inner,
    )


def _with_grading(fd_rep, graded):
    slope = float(graded[-1] - graded[-2]) if len(graded) >= 2 else 0.0
    return replace(
        fd_rep,
        graded_dims=graded,
        fd_graded_last=float(graded[-1]) if len(graded) else None,
        fd_graded_slope=slope,
    )
