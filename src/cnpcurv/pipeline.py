"""End-to-end orchestration: tuple + kernel -> full curvature report.

A PipelineResult is one run: pkg -> purity (walked to n_theta) -> profile
-> fd -> report.  Each stage is built on first read and kept, so a caller
runs only the stages it reads, each once; only an evaluation of theta builds
the block row.  The report builds no Taylor series: whether theta is a
polynomial, and the degree bound, come from charfn.termination_bound; the
series stage serves `theta --taylor`.  The defect package carries the run's
tolerances (RunSettings.tol); every later stage reads them there.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property

from .charfn import CharacteristicSeries, taylor, termination_bound, theta_horizon
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
from .fibredim import FibreDimReport, fd_by_grading, fd_report
from .kernel import KernelSpec
from .tuples import DefectPackage, OperatorTuple, PurityReport, defect_package, purity

__all__ = ["RunSettings", "PipelineResult", "run_curvature"]


@dataclass(frozen=True)
class RunSettings:
    n_op: int | None = None       # defect series horizon (None: nilpotency default, >= b-support)
    n_theta: int | None = None    # profile and Taylor horizon (None: termination degree or n_op)
    n_max: int = 12               # weighted/ordering table and grading depth
    radius: float = 0.999
    n_samples: int = 4000
    seed: int = 7
    fd_samples: int = 50
    fd_radius: float = 0.8
    tol: Tolerances = DEFAULT


class PipelineResult:
    """One run of tuple t over kernel k under settings.

    tuples.sigma_walk gives S_N to the package, then sums the purity series
    and the traces of the degree profile, which every scalar route reads.
    The graded fibre dimension walks sigma on factors of its own.  The report reads no Taylor series;
    the series stage is built only when a caller reads it."""

    def __init__(self, t: OperatorTuple, k: KernelSpec, settings: RunSettings = RunSettings()):
        self.t, self.k, self.settings = t, k, settings

    @cached_property
    def pkg(self) -> DefectPackage:
        return defect_package(self.t, self.k, n_op=self.settings.n_op, tol=self.settings.tol)

    @cached_property
    def n_theta(self) -> int:
        return theta_horizon(self.pkg, self.k, self.settings.n_theta)

    @cached_property
    def purity(self) -> PurityReport:
        return purity(self.pkg, self.k, n_traces=self.n_theta)

    @cached_property
    def profile(self) -> DegreeProfile:
        return DegreeProfile.build(
            self.pkg, self.k, self.settings.n_max, self.n_theta, traces=self.purity.traces
        )

    @cached_property
    def series(self) -> CharacteristicSeries:
        return taylor(self.pkg, self.k, n_theta=self.n_theta)

    def fibre_dimension(self, n_samples: int, radius: float, seed: int) -> FibreDimReport:
        """The evaluation rank over n_samples points of the given radius and
        seed, with the graded dimensions up to settings.n_max."""
        rep = fd_report(self.pkg, self.k, n_samples, radius, seed, self.purity.purity_residual)
        graded = fd_by_grading(self.pkg, self.k, self.settings.n_max)
        return replace(
            rep,
            graded_dims=graded,
            fd_graded_last=float(graded[-1]),
            fd_graded_slope=float(graded[-1] - graded[-2]) if len(graded) >= 2 else 0.0,
        )

    @cached_property
    def fd(self) -> FibreDimReport:
        s = self.settings
        return self.fibre_dimension(s.fd_samples, s.fd_radius, s.seed + 1)

    @cached_property
    def report(self) -> CurvatureReport:
        """Every estimator, collected and reconciled."""
        pkg, k, s = self.pkg, self.k, self.settings
        pur, profile = self.purity, self.profile
        bound = termination_bound(pkg, k, self.n_theta)
        is_poly = bound is not None
        k_w = curvature_weighted(profile, pkg.rank_delta)
        k_int = curvature_integral(
            pkg, k, radius=s.radius, n_samples=s.n_samples, seed=s.seed, degree=bound
        )
        fd_rep = self.fd
        k_pure = None  # for an impure tuple or inconsistent horizons
        with suppress(NotPure, IntegerMismatch):
            k_pure = curvature_pure(pkg, is_poly, profile, fd_rep.fd_eval, pur.purity_residual)
        report = CurvatureReport(
            dim_ran_delta=pkg.rank_delta,
            rank_d=pkg.rank_d,
            purity_residual=pur.purity_residual,
            purity_exact=pur.exact,
            trace_dpsi_series=profile.series_value,
            k_series=pkg.rank_delta - profile.series_value,
            k_weighted=k_w,
            k_integral=k_int,
            k_at_radius_exact=pkg.rank_delta - profile.sphere_average(s.radius),
            k_pure=k_pure,
            fd_eval=fd_rep.fd_eval,
            is_polynomial=is_poly,
            theta_degree_bound=bound,
            n_theta=self.n_theta,
            n_op=pkg.n_op,
            tail_bound=pkg.tail_bound,
            convergence=ordering_rows(profile),
        )
        report.verdict = reconcile(report, pkg, k)
        return report


def run_curvature(t: OperatorTuple, k: KernelSpec, settings: RunSettings = RunSettings()) -> PipelineResult:
    """defect -> purity and degree profile -> curvature and fd -> reconcile:
    the run, with its report built."""
    run = PipelineResult(t, k, settings)
    run.report  # builds every stage the report reads
    return run
