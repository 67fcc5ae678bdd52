"""Unitarily invariant kernel coefficient tables.

A kernel is represented by its scalar coefficient sequence a_0..a_N (a_0 = 1,
a_n > 0).  From it we derive the sequence b_1..b_N of the reciprocal-series
expansion (the complete Nevanlinna-Pick coefficients), the weight rows w_{i,n}
of the asymptotic averaging formula, and finite-horizon regularity trends.

Presets are computed in exact rational arithmetic and converted to floats, so
row-sum and convolution identities can be asserted exactly.  The exact
b-table of each preset is kept for the life of the process and extended when
a larger horizon is asked for (b_n depends on a_0..a_n only), so a process
that builds many kernels runs the O(N^2) recurrence once per preset; the
table never grows beyond the largest horizon asked for.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational as RationalABC

import numpy as np

from .comb import as_multi_index, multinomial
from .config import DEFAULT, Tolerances
from .errors import CNPViolation, HorizonExceeded, PresetDomainError

PRESET_NAMES = ("szego", "drury-arveson", "dirichlet")


def _is_exact_scalar(x) -> bool:
    return isinstance(x, RationalABC)  # ints and Fractions, not floats


def bn_from_an(a_table, eps_cnp: float = DEFAULT.eps_cnp):
    """Derive b_1..b_N from a_0..a_N by the reciprocal power-series recurrence

        b_n = a_n - sum_{j=1}^{n-1} b_j a_{n-j},

    i.e. the coefficient-level inversion of 1 - 1/s in the variable <z, w>.

    Accepts exact (int/Fraction) or float tables and keeps the arithmetic
    exact when the input is exact.  Raises ValueError for a boolean or
    non-finite entry and CNPViolation if any b_n drops below -eps_cnp
    (exact inputs: below 0).
    """
    a = list(a_table)
    if len(a) < 1:
        raise ValueError("need at least a_0")
    if any(isinstance(x, (bool, np.bool_)) or not (_is_exact_scalar(x) or np.isfinite(x)) for x in a):
        raise ValueError("kernel coefficients must be finite numbers, not booleans")
    exact = all(_is_exact_scalar(x) for x in a)
    if exact:
        a = [Fraction(x) for x in a]
    if a[0] != 1:
        raise ValueError(f"a_0 must equal 1, got {a[0]}")
    if any(x <= 0 for x in a):
        raise ValueError("all a_n must be positive")

    return _extend_b(a, [], 0 if exact else -eps_cnp)


def _extend_b(a: list, b: list, floor) -> list:
    """b_1..b_N from a_0..a_N, given the leading b_1..b_k already in b.

    Zero b_j drop out of the recurrence sum, so a kernel with finite
    b-support (szego, drury-arveson) costs O(N) instead of O(N^2).  Raises
    CNPViolation at the first b_n below floor.
    """
    b = list(b)
    support = [(j, bj) for j, bj in enumerate(b, start=1) if bj != 0]
    for n in range(len(b) + 1, len(a)):
        bn = a[n] - sum(bj * a[n - j] for j, bj in support)
        if bn < floor:
            raise CNPViolation(
                f"b_{n} = {bn} is negative: not an irreducible CNP kernel"
            )
        b.append(bn)
        if bn != 0:
            support.append((n, bn))
    return b


@dataclass(frozen=True)
class KernelSpec:
    """A truncated unitarily invariant kernel.

    a[n] holds a_n for 0 <= n <= N; b[n] holds b_n for 1 <= n <= N with
    b[0] = 0 as a placeholder.  When the coefficients are known exactly the
    parallel Fraction tables are kept for exact-identity work.
    b_support_bound, when set, certifies that b_n = 0 for every n beyond it
    (a structural fact of the preset, not a numerical observation).
    """

    name: str
    d: int
    N: int
    a: np.ndarray
    b: np.ndarray
    a_exact: tuple[Fraction, ...] | None = None
    b_exact: tuple[Fraction, ...] | None = None
    b_support_bound: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("kernel dimension d must be >= 1")
        if self.N < 1:
            raise ValueError("horizon N must be >= 1")
        if len(self.a) != self.N + 1 or len(self.b) != self.N + 1:
            raise ValueError("coefficient tables must have length N + 1")
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    # -- multi-index accessors -------------------------------------------
    def a_of(self, alpha) -> float:
        """a_alpha = a_{|alpha|} * binom(|alpha|, alpha)."""
        m = as_multi_index(alpha)
        self._check_degree(m.degree)
        return float(self.a[m.degree]) * multinomial(m)

    def b_of(self, alpha) -> float:
        """b_alpha = b_{|alpha|} * binom(|alpha|, alpha) (alpha != 0)."""
        m = as_multi_index(alpha)
        if m.degree == 0:
            raise ValueError("b_alpha is defined for alpha != 0 only")
        self._check_degree(m.degree)
        return float(self.b[m.degree]) * multinomial(m)

    def b_partial_sum(self, m: int) -> float:
        """sum_{j=1}^{m} b_j (m capped at the horizon)."""
        self._check_degree(m)
        return float(np.sum(self.b[1 : m + 1]))

    def a_truncated(self, n_op: int, n: int) -> np.ndarray:
        """Coefficients 0..n of the reciprocal series of 1 - k_N(x), with
        k_N(x) = sum_{1<=j<=n_op} b_j x^j: a_m for m <= n_op.  They run from
        the b-recurrence, which reads no b_j past n_op, so n may pass N."""
        b = self.b[1 : n_op + 1]
        at = np.zeros(n + 1)
        at[0] = 1.0
        for m in range(1, n + 1):
            j = min(m, len(b))
            at[m] = np.dot(b[:j], at[m - j : m][::-1])
        return at

    def b_is_zero_beyond(self, m: int) -> bool:
        """True when b_n = 0 for all n > m is structurally certified."""
        return self.b_support_bound is not None and self.b_support_bound <= m

    def fingerprint(self) -> tuple:
        """Identity token used to refuse mixing mismatched kernels."""
        return (self.name, self.d, self.N, self.a.tobytes())

    def _check_degree(self, n: int) -> None:
        if n > self.N:
            raise HorizonExceeded(f"degree {n} beyond kernel horizon N = {self.N}")


def from_coefficients(
    a_table,
    d: int,
    name: str = "custom",
    eps_cnp: float = DEFAULT.eps_cnp,
    b_support_bound: int | None = None,
) -> KernelSpec:
    """Build a KernelSpec from an explicit a-table (exact or float)."""
    a = list(a_table)
    return _spec(name, d, a, bn_from_an(a, eps_cnp=eps_cnp), b_support_bound)


def _spec(name: str, d: int, a: list, b: list, b_support_bound: int | None) -> KernelSpec:
    """The KernelSpec of a_0..a_N and b_1..b_N, with exact tables when a is exact."""
    if all(_is_exact_scalar(x) for x in a):
        a_exact = tuple(Fraction(x) for x in a)
        b_exact = (Fraction(0),) + tuple(Fraction(x) for x in b)
    else:
        a_exact = b_exact = None
    a_f = np.array([float(x) for x in a], dtype=float)
    b_f = np.array([0.0] + [float(x) for x in b], dtype=float)
    return KernelSpec(
        name=name,
        d=d,
        N=len(a) - 1,
        a=a_f,
        b=b_f,
        a_exact=a_exact,
        b_exact=b_exact,
        b_support_bound=b_support_bound,
    )


# Exact b_1..b_N of each preset, for the largest N asked for so far in this
# process.  A longer table replaces a shorter one whole, so a reader sees one
# or the other, and both are prefixes of the same sequence.
_PRESET_B: dict[str, tuple[Fraction, ...]] = {}


def preset(name: str, d: int, N: int) -> KernelSpec:
    """One of the named kernels: szego (d = 1), drury-arveson, dirichlet.

    szego/drury-arveson: a_n = 1 (so b = (1, 0, 0, ...)); dirichlet:
    a_n = 1/(n+1).  The szego preset is the d = 1 case; for d > 1 the same
    coefficient table is the Drury-Arveson kernel, so szego with d > 1 is
    rejected.  Each call returns a new KernelSpec; its b-table is read from
    the preset's table kept for the process.
    """
    key = name.strip().lower()
    if key not in PRESET_NAMES:
        raise PresetDomainError(
            f"unknown preset {name!r}; choose from {PRESET_NAMES}"
        )
    if N < 1:
        raise ValueError("preset horizon N must be >= 1")
    if key == "szego":
        if d != 1:
            raise PresetDomainError(
                "the szego preset is one-dimensional; for d > 1 the same "
                "coefficients are the drury-arveson kernel"
            )
        a = [Fraction(1)] * (N + 1)
        support = 1
    elif key == "drury-arveson":
        a = [Fraction(1)] * (N + 1)
        support = 1
    else:  # dirichlet
        a = [Fraction(1, n + 1) for n in range(N + 1)]
        support = None
    b = _PRESET_B.get(key, ())
    if len(b) < N:
        b = _PRESET_B[key] = tuple(_extend_b(a, b, 0))
    return _spec(key, d, a, b[:N], support)


# -- weight rows ----------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    """One row of averaging weights: w[i] = w_{i,n} for 0 <= i <= n."""

    n: int
    w: np.ndarray
    kernel: KernelSpec

    def __post_init__(self) -> None:
        self.w.setflags(write=False)

    @cached_property
    def w_exact(self) -> tuple[Fraction, ...] | None:
        """The row in the kernel's rational tables, or None; built on first read."""
        ae, be, n = self.kernel.a_exact, self.kernel.b_exact, self.n
        if ae is None or be is None:
            return None
        rows = [ae[i] * (1 - sum(be[1 : n - i + 1], Fraction(0))) for i in range(n)]
        return (*rows, ae[n])


def weights(kernel: KernelSpec, n: int) -> WeightTable:
    """The weight row w_{i,n} = a_i (1 - sum_{j<=n-i} b_j) for i < n, a_n at
    i = n.  Row sums to 1 (exactly, in the rational tables)."""
    if n > kernel.N:
        raise HorizonExceeded(f"weight row {n} beyond kernel horizon {kernel.N}")
    if n < 0:
        raise ValueError("n must be >= 0")
    w = np.empty(n + 1, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(kernel.b[1 : n + 1])))
    for i in range(n):
        w[i] = kernel.a[i] * (1.0 - cum[n - i])
    w[n] = kernel.a[n]
    return WeightTable(n=n, w=w, kernel=kernel)


# -- regularity trends ----------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Finite-horizon proxies for the regularity conditions.

    Nothing here certifies a limit; the flags summarize trends over the
    available coefficients only.
    """

    ratio_tail: np.ndarray      # last few values of a_n / a_{n+1}
    b_partial_sum: float        # sum of b_1..b_N
    divergence_proxy: float     # sum of a_0..a_N
    cnp_flag: bool              # all b_n >= -eps
    ratio_flag: bool            # a_n / a_{n+1} trending to 1
    divergence_flag: bool       # b partial sums trending to 1


def regularity(kernel: KernelSpec, tol: Tolerances = DEFAULT) -> RegularityReport:
    """Report finite-horizon trends for the ratio and divergence conditions."""
    a, b, N = kernel.a, kernel.b, kernel.N
    k_tail = min(5, N)
    ratios = a[N - k_tail : N] / a[N - k_tail + 1 : N + 1]
    cnp_flag = bool(np.all(b[1:] >= -tol.eps_cnp))
    ratio_flag = bool(abs(ratios[-1] - 1.0) <= 0.2) and bool(
        abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + tol.eps_id
    )
    residual_half = 1.0 - float(np.sum(b[1 : N // 2 + 1]))
    residual_full = 1.0 - float(np.sum(b[1 : N + 1]))
    divergence_flag = residual_full <= tol.eps_id or (
        residual_full < residual_half - tol.eps_id
    )
    return RegularityReport(
        ratio_tail=ratios,
        b_partial_sum=float(np.sum(b[1:])),
        divergence_proxy=float(np.sum(a)),
        cnp_flag=cnp_flag,
        ratio_flag=ratio_flag,
        divergence_flag=divergence_flag,
    )
