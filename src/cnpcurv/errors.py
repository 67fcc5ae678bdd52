"""Exception hierarchy shared by every layer of the package.

Each error corresponds to one rejection path; the CLI maps them to distinct
exit codes (see cli.EXIT_CODES).
"""


class CnpcurvError(Exception):
    """Base class for all package-specific errors."""


class IndexDegreeError(CnpcurvError):
    """A multi-index exceeds the degree admissible for the requested identity."""


class PresetDomainError(CnpcurvError):
    """A kernel preset was requested outside its domain of definition."""


class CNPViolation(CnpcurvError):
    """A derived b-coefficient is negative: the kernel is not an irreducible
    complete Nevanlinna-Pick kernel within tolerance."""


class HorizonExceeded(CnpcurvError):
    """A degree was requested beyond the truncation horizon of a table or
    graded space."""


class ShapeError(CnpcurvError):
    """Operator input with inconsistent matrix shapes."""


class CommutatorError(CnpcurvError):
    """The input matrices do not commute within tolerance."""


class NotContraction(CnpcurvError):
    """The tuple fails the contraction test: the defect series partial sum
    has an eigenvalue above 1."""


class TailUnbounded(CnpcurvError):
    """No convergence certificate for the omitted series tail at the
    requested horizon."""


class NotUnitary(CnpcurvError):
    """The conjugating matrix is not unitary within tolerance."""


class OutsideBall(CnpcurvError):
    """Evaluation point does not lie in the open unit ball."""


class NearSingular(CnpcurvError):
    """The resolvent system is too ill-conditioned at the requested point
    (point too close to the boundary for the truncation horizon)."""


class NotPure(CnpcurvError):
    """Purity residual too large to invoke a purity-gated formula."""


class IntegerMismatch(CnpcurvError):
    """Purity holds but the series estimate of the curvature is far from an
    integer; horizons are inconsistent."""


class ReconcileFailure(CnpcurvError):
    """Two curvature estimators disagree beyond their combined tolerance,
    or inputs from mismatched kernels were combined."""


class SizeLimitExceeded(CnpcurvError):
    """A dense intermediate would exceed the package's fixed size limit; the
    request is refused before the allocation."""
