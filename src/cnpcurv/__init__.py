"""Curvature invariants of commuting matrix tuples relative to regular
unitarily invariant complete Nevanlinna-Pick kernels.

Layers, bottom up:

* comb      exact multi-index combinatorics (integers and fractions only)
* kernel    coefficient tables a_n, b_n, weight rows, regularity trends
* tuples    commuting tuples, contraction test, defect package
* charfn    characteristic function: point evaluation and Taylor series
* traces    the multiplication matrix on truncated polynomial spaces
* curvature the degree profile and the invariant by series / weighted /
            integral routes
* fibredim  fibre dimension by evaluation rank and graded dimensions
* pipeline  one-call orchestration producing a full report
* cli       the `cnpcurv` command
"""
from . import comb, kernel, tuples, charfn, traces, curvature, fibredim
from .comb import MultiIndex, enumerate_degree, multinomial, q, verify_id2
from .config import DEFAULT, Tolerances
from .errors import (
    CnpcurvError,
    CNPViolation,
    CommutatorError,
    HorizonExceeded,
    IndexDegreeError,
    IntegerMismatch,
    NearSingular,
    NotContraction,
    NotPure,
    NotUnitary,
    OutsideBall,
    PresetDomainError,
    ReconcileFailure,
    ShapeError,
    SizeLimitExceeded,
    TailUnbounded,
)
from .kernel import KernelSpec, bn_from_an, from_coefficients, preset, regularity, weights
from .tuples import (
    DefectPackage,
    OperatorTuple,
    conjugate_by_unitary,
    defect_package,
    load_tuple,
    nilpotency_degree,
    purity,
)
from .charfn import CharacteristicSeries, PointEvaluation, check_consistency, eval_theta, taylor
from .curvature import (
    CurvatureReport,
    DegreeProfile,
    curvature_integral,
    curvature_pure,
    curvature_weighted,
    ordering_rows,
    reconcile,
)
from .fibredim import FibreDimReport, fd_by_grading, fd_report, innermult_consistency
from .pipeline import PipelineResult, RunSettings, run_curvature

__version__ = "0.1.0"
