"""Commuting matrix tuples, the contraction test, and the defect package.

Given a commuting d-tuple T = (T_1..T_d) on C^dimH and a kernel, this module
builds the truncated defect series S_N = sum b_alpha T^alpha (T^alpha)*, the
defect operator Delta = (I - S_N)^{1/2}, the block-row operator Ttilde with
blocks sqrt(b_alpha) T^alpha, its defect Dtilde = (I - Ttilde* Ttilde)^{1/2},
and orthonormal bases of both ranges.  S_N = sum_n b_n sigma^n(I) and the
purity series come from one walk of sigma(X) = sum_i T_i X T_i* (sigma_walk);
only theta reads Ttilde.  Blocks with b_{|alpha|} = 0 add nothing to these
operators, so they are omitted from the block index set.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .comb import enumerate_degree, q
from .config import DEFAULT, Tolerances
from .errors import (
    CommutatorError,
    HorizonExceeded,
    NotContraction,
    NotUnitary,
    ShapeError,
    TailUnbounded,
)
from .kernel import KernelSpec

__all__ = [
    "OperatorTuple",
    "DefectPackage",
    "PurityReport",
    "load_tuple",
    "nilpotency_degree",
    "defect_package",
    "purity",
    "sigma_walk",
    "conjugate_by_unitary",
]


def op_norm(m: np.ndarray) -> float:
    """Spectral norm."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _psqrt(h: np.ndarray, clamp_top: float | None = None):
    """Positive square root of a Hermitian matrix via eigendecomposition.

    Eigenvalues are clamped to [0, clamp_top]; numerical negativity of order
    machine epsilon must not poison the root.  Returns (root, eigvals, vecs)
    with eigvals the clamped eigenvalues of h in ascending order.
    """
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, clamp_top)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return root, vals, vecs


def _range_basis(vals: np.ndarray, vecs: np.ndarray, eps_rank: float) -> np.ndarray:
    """Orthonormal basis of the range of the PSD root with the given spectrum.

    The relative threshold is applied to the eigenvalues of the squared
    operator, where the eigensolver's noise floor lives; thresholding the
    square-rooted singular values instead would amplify O(eps) eigenvalue
    noise to O(sqrt(eps)) and make ranks irreproducible under conjugation.
    """
    vmax = vals.max() if vals.size else 0.0
    keep = vals > eps_rank * vmax if vmax > 0 else np.zeros_like(vals, dtype=bool)
    return vecs[:, keep]


@dataclass(frozen=True)
class OperatorTuple:
    """A commuting d-tuple of square complex matrices on C^dimH."""

    ops: tuple[np.ndarray, ...]
    commutator_residual: float

    def __post_init__(self) -> None:
        for t in self.ops:
            t.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.ops)

    @property
    def dim_h(self) -> int:
        return self.ops[0].shape[0]

    def norms(self) -> list[float]:
        return [op_norm(t) for t in self.ops]

    @cached_property
    def nilpotent_degree(self) -> int | None:
        """nilpotency_degree(self), computed on first use and kept."""
        return nilpotency_degree(self)


# Largest operator norm whose square is a finite float.
_NORM_LIMIT = math.sqrt(sys.float_info.max)


def load_tuple(matrices, eps_comm: float | None = None, tol: Tolerances = DEFAULT) -> OperatorTuple:
    """Validate shapes, entries and commutativity and wrap the matrices.

    Raises ShapeError for non-square or mismatched shapes, non-finite
    entries, or a norm whose square is not a finite float.  eps_comm
    defaults to comm_rel * max(1, max ||T_i||^2) so the gate is scale
    invariant.
    """
    ops = [np.asarray(m, dtype=complex).copy() for m in matrices]
    if len(ops) < 1:
        raise ShapeError("need at least one operator")
    dim = ops[0].shape
    if len(dim) != 2 or dim[0] != dim[1]:
        raise ShapeError(f"operators must be square matrices, got shape {dim}")
    for t in ops:
        if t.shape != dim:
            raise ShapeError(f"inconsistent operator shapes: {t.shape} vs {dim}")
        if not np.all(np.isfinite(t)):
            raise ShapeError("operator entries must be finite numbers")
    norm_max = max(op_norm(t) for t in ops)
    if norm_max > _NORM_LIMIT:
        raise ShapeError(
            f"operator norm {norm_max:.3e} is out of range: its square is not a "
            "finite float"
        )
    if eps_comm is None:
        scale = max(1.0, norm_max**2)
        eps_comm = tol.comm_rel * scale
    residual = 0.0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            residual = max(residual, op_norm(ops[i] @ ops[j] - ops[j] @ ops[i]))
    if residual > eps_comm:
        raise CommutatorError(
            f"commutator residual {residual:.3e} exceeds tolerance {eps_comm:.3e}"
        )
    return OperatorTuple(ops=tuple(ops), commutator_residual=residual)


def _degree_powers(ops, max_degree: int):
    """Yield [(alpha, T^alpha) for |alpha| = n] for n = 1..max_degree.

    Degree n is built from degree n - 1 alone, T^alpha = T_i T^(alpha - e_i)
    with i the first nonzero index of alpha, so at most two degrees of
    powers are alive at once.
    """
    prev = {(0,) * len(ops): np.eye(ops[0].shape[0], dtype=complex)}
    for n in range(1, max_degree + 1):
        level = []
        for alpha in enumerate_degree(len(ops), n):
            a = alpha.entries
            i = next(k for k, e in enumerate(a) if e > 0)
            level.append((alpha, ops[i] @ prev[a[:i] + (a[i] - 1,) + a[i + 1 :]]))
        yield level
        prev = {alpha.entries: ta for alpha, ta in level}


def sigma_walk(ops, x: np.ndarray, n: int):
    """Yield x, sigma(x), ..., sigma^n(x), sigma(X) = sum_i T_i X T_i*, one
    matrix at a time: only the current one is kept."""
    yield x
    for _ in range(n):
        x = sum(ti @ x @ ti.conj().T for ti in ops)
        yield x


def _norm_at_most(a: np.ndarray, eps: float) -> bool:
    """||a||_2 <= eps, deciding from ||a||_F where that settles it.

    ||a||_2 <= ||a||_F <= sqrt(n) ||a||_2 for an n x n matrix, so the SVD is
    taken only when eps < ||a||_F <= eps sqrt(n).
    """
    fro = float(np.linalg.norm(a))
    if fro <= eps:
        return True
    if fro > eps * math.sqrt(a.shape[0]):
        return False
    return op_norm(a) <= eps


def nilpotency_degree(t: OperatorTuple) -> int | None:
    """Smallest m <= dimH with ||(T/c)^alpha|| <= 1e-12 for all |alpha| = m.

    c = max(1, ||T_i||), so neither the powers nor the relative threshold
    1e-12 c^m overflow.  "Nilpotent" is this numerical test: a strict
    contraction whose degree-m powers all fall to 1e-12 c^m counts as
    nilpotent of degree m although no T_i is (the d = 3, dimH 60 tuple of
    the series-tables benchmark gives 26).  The degree then sets the default
    horizon, a zero tail bound and an exact purity sum, and every graded
    series over alpha is taken to terminate at degree m - 1.

    Only the pure powers (T_i/c)^k, k <= m, are kept; each T^alpha of degree
    m is their product, formed in enumerate_degree order until one is above
    the threshold, so memory is d (m + 1) dimH^2 numbers, not a degree's table.
    """
    c = max(t.norms() + [1.0])
    scaled = [op / c for op in t.ops]
    pure = [[np.eye(t.dim_h, dtype=complex)] for _ in scaled]
    for m in range(1, t.dim_h + 1):
        for powers, op in zip(pure, scaled):
            powers.append(op @ powers[-1])
        if all(
            _norm_at_most(reduce(np.matmul, [p[e] for p, e in zip(pure, alpha) if e]), 1e-12)
            for alpha in enumerate_degree(t.d, m)
        ):
            return m
    return None


def _tilde(key: str, doc: str) -> property:
    """A read of DefectPackage._tilde_side, which builds it on first use."""
    return property(lambda pkg: pkg._tilde_side[key], doc=doc)


@dataclass(frozen=True)
class DefectPackage:
    """Defect data of a tuple t relative to a kernel at horizon n_op.

    W (dimH x rank_delta) and V (tilde_dim x rank_d) are orthonormal bases of
    Ran Delta and Ran Dtilde.  tilde_index_set lists the blocks of the block
    row Ttilde (multi-indices alpha with 1 <= |alpha| <= n_op and
    b_{|alpha|} > 0, by degree then lexicographic).

    The dimH side (S_N, Delta, W, rank_delta) is built with the package,
    from the sigma walk.  The tilde side (Ttilde and its index set, Dtilde,
    V, rank_d, the identity and intertwining residuals) is built on first
    read, with the package's tolerances, and kept: only theta reads it,
    through the realization.  tilde_dim is counted without it.  Every
    estimator that reads the package takes its gates from tol.
    """

    t: OperatorTuple
    kernel: KernelSpec
    n_op: int
    s_n: np.ndarray
    delta: np.ndarray
    rank_delta: int
    w: np.ndarray
    tail_bound: float
    tol: Tolerances

    t_tilde = _tilde("t_tilde", "The block row [sqrt(b_alpha) T^alpha], dimH x tilde_dim.")
    tilde_index_set = _tilde("index_set", "The blocks' alpha, in column order.")
    d_tilde = _tilde("d_tilde", "Dtilde = (I - Ttilde* Ttilde)^{1/2}.")
    v = _tilde("v", "Orthonormal basis of Ran Dtilde.")
    rank_d = _tilde("rank_d", "dim Ran Dtilde.")
    delta_identity_residual = _tilde("identity", "|| Delta^2 + Ttilde Ttilde* - I ||.")
    intertwine_residual = _tilde("intertwine", "|| Ttilde Dtilde - Delta Ttilde ||.")

    @property
    def dim_h(self) -> int:
        return self.t.dim_h

    @property
    def nilpotent_degree(self) -> int | None:
        return self.t.nilpotent_degree

    @property
    def tilde_dim(self) -> int:
        """dimH times the number of blocks, counted without building them."""
        live = [n for n in range(1, self.n_op + 1) if self.kernel.b[n] > 0.0]
        return self.dim_h * sum(q(self.t.d - 1, n) for n in live)

    @cached_property
    def _tilde_side(self) -> dict:
        """Ttilde, its index set and sqrt(b_alpha) per block, Dtilde, V and
        the two residuals, built once."""
        dim, k = self.dim_h, self.kernel
        index_set, blocks, roots = [], [], []
        for n, level in enumerate(_degree_powers(self.t.ops, self.n_op), start=1):
            if k.b[n] <= 0.0:
                continue
            for alpha, ta in level:
                roots.append(np.sqrt(k.b_of(alpha)))
                blocks.append(roots[-1] * ta)
                index_set.append(alpha)
        t_tilde = np.hstack(blocks) if blocks else np.zeros((dim, 0), dtype=complex)
        gram = t_tilde.conj().T @ t_tilde
        d_tilde, tvals, tvecs = _psqrt(np.eye(gram.shape[0]) - gram, clamp_top=None)
        v = _range_basis(tvals, tvecs, self.tol.eps_rank)
        return {
            "t_tilde": t_tilde,
            "index_set": tuple(index_set),
            "exps": np.array([a.entries for a in index_set], dtype=int).reshape(-1, self.t.d),
            "roots": np.array(roots),
            "d_tilde": d_tilde,
            "v": v,
            "rank_d": v.shape[1],
            "identity": op_norm(self.delta @ self.delta + t_tilde @ t_tilde.conj().T - np.eye(dim)),
            "intertwine": op_norm(t_tilde @ d_tilde - self.delta @ t_tilde),
        }

    @cached_property
    def realization(self) -> tuple:
        """theta(z) = A_0 + W* Delta (I - B(z))^{-1} Z(z) Dtilde V (see charfn):
        alpha, sqrt(b_alpha), Ttilde_alpha* and (Dtilde V)_alpha stacked over
        the blocks, then A_0 = -W* Ttilde V and W* Delta."""
        side, dim = self._tilde_side, self.dim_h
        n_blocks = len(side["index_set"])
        # t_tilde[i, alpha * dim + j] is entry (i, j) of the alpha-block
        adj = self.t_tilde.reshape(dim, n_blocks, dim).conj().transpose(1, 2, 0)
        dv = (self.d_tilde @ self.v).reshape(n_blocks, dim, self.rank_d)
        const = -self.w.conj().T @ self.t_tilde @ self.v
        return side["exps"], side["roots"], adj, dv, const, self.w.conj().T @ self.delta


def default_horizon(t: OperatorTuple) -> int | None:
    """Default truncation horizon: nilpotency degree - 1 (at least 1)."""
    nd = t.nilpotent_degree
    if nd is None:
        return None
    return max(1, nd - 1)


def _tail_certificate(t: OperatorTuple, k: KernelSpec, n_op: int) -> float:
    """Bound on the omitted defect-series tail past n_op.

    Uses || sum_{|alpha|=n} b_alpha T^alpha (T^alpha)* || <= b_n rho^n with
    rho = sum_i ||T_i||^2 (a crude but certified overestimate).
    """
    if k.b_is_zero_beyond(n_op):
        return 0.0
    rho = sum(x**2 for x in t.norms())
    try:
        known = float(sum(k.b[n] * rho**n for n in range(n_op + 1, k.N + 1)))
    except OverflowError:  # rho**n beyond the float range
        known = math.inf
    residual_mass = max(0.0, 1.0 - k.b_partial_sum(k.N))
    if rho < 1.0:
        return known + residual_mass * rho ** (k.N + 1)
    if rho == 1.0 or residual_mass == 0.0:
        return known + residual_mass
    raise TailUnbounded(
        f"no convergence certificate: sum of squared norms rho = {rho:.4g} >= 1 "
        f"with unresolved b-mass {residual_mass:.3e} beyond the kernel horizon"
    )


def defect_package(
    t: OperatorTuple,
    k: KernelSpec,
    n_op: int | None = None,
    tol: Tolerances = DEFAULT,
) -> DefectPackage:
    """Build S_N = sum_{1 <= j <= n_op, b_j > 0} b_j sigma^j(I), Delta and W
    at horizon n_op (default: default_horizon(t), raised to the kernel's
    b-support bound if it has one, so that theta_horizon's default needs no
    block beyond it).  The tilde side is built on first read (DefectPackage).

    Raises NotContraction when the truncated series has an eigenvalue above
    1 + eps_id (checked first on its degree-one terms, before any power of
    T is built, so huge norms cannot overflow), and TailUnbounded when the
    tuple is not nilpotent and no tail certificate exists.
    """
    nd = t.nilpotent_degree
    if n_op is None:
        n_op = default_horizon(t)
        if n_op is None:
            raise ValueError(
                "tuple is not jointly nilpotent: an explicit horizon n_op is required"
            )
        n_op = max(n_op, k.b_support_bound or 0)
    if n_op < 1:
        raise ValueError("n_op must be >= 1")
    if n_op > k.N:
        raise HorizonExceeded(f"n_op = {n_op} beyond kernel horizon N = {k.N}")

    tail = 0.0 if nd is not None and n_op >= nd - 1 else _tail_certificate(t, k, n_op)

    # S_N >= b_1 T_i T_i* term by term: reject before any power is built
    first = float(k.b[1]) * max(t.norms()) ** 2
    if first > 1.0 + tol.eps_id:
        raise NotContraction(
            "the defect series has an eigenvalue of at least "
            f"b_1 max ||T_i||^2 = {first:.6g} > 1"
        )

    dim = t.dim_h
    s_n = np.zeros((dim, dim), dtype=complex)
    for j, x in enumerate(sigma_walk(t.ops, np.eye(dim, dtype=complex), n_op)):
        if j >= 1 and k.b[j] > 0.0:
            s_n += float(k.b[j]) * x

    lam_max = float(np.linalg.eigvalsh(0.5 * (s_n + s_n.conj().T))[-1]) if dim else 0.0
    if lam_max > 1.0 + tol.eps_id:
        raise NotContraction(
            f"largest eigenvalue of the defect series is {lam_max:.6g} > 1"
        )

    delta, dvals, dvecs = _psqrt(np.eye(dim) - s_n, clamp_top=1.0)
    w = _range_basis(dvals, dvecs, tol.eps_rank)

    return DefectPackage(
        t=t, kernel=k, n_op=n_op, s_n=s_n, delta=delta, rank_delta=w.shape[1], w=w,
        tail_bound=tail, tol=tol,
    )


@dataclass(frozen=True)
class PurityReport:
    """Partial sum of sum_alpha a_alpha T^alpha Delta^2 (T^alpha)* and its
    distance from the identity, with the traces u_m = tr sigma^m(Delta^2)
    of the walk that summed it (m = 0..max(n_op, n_traces))."""

    p_n: np.ndarray
    purity_residual: float
    exact: bool
    n_op: int
    traces: np.ndarray


def purity(
    pkg: DefectPackage,
    k: KernelSpec,
    n_op: int | None = None,
    n_traces: int = 0,
) -> PurityReport:
    """Evaluate the purity series partial sum at horizon n_op.

    Degree n of the series is a_n sigma^n(Delta^2), because T commutes and
    a_alpha = a_n n!/alpha!: one sigma_walk from Delta^2 sums it.  The walk
    runs on to degree n_traces when that is larger and records every trace
    tr sigma^m(Delta^2), for the degree profile.
    exact is True when the tuple is jointly nilpotent and the horizon covers
    every nonvanishing term, in which case the series has terminated.
    """
    if n_op is None:
        n_op = pkg.n_op
    if n_op > k.N:
        raise HorizonExceeded(f"n_op = {n_op} beyond kernel horizon N = {k.N}")
    p = np.zeros((pkg.dim_h, pkg.dim_h), dtype=complex)
    traces = []
    for n, x in enumerate(sigma_walk(pkg.t.ops, pkg.delta @ pkg.delta, max(n_op, n_traces))):
        traces.append(np.trace(x).real)
        if n <= n_op:
            p += float(k.a[n]) * x
    residual = op_norm(np.eye(pkg.dim_h) - p)
    nd = pkg.nilpotent_degree
    exact = nd is not None and n_op >= nd - 1
    return PurityReport(
        p_n=p, purity_residual=residual, exact=exact, n_op=n_op, traces=np.array(traces)
    )


def conjugate_by_unitary(
    t: OperatorTuple, u: np.ndarray, tol: Tolerances = DEFAULT
) -> OperatorTuple:
    """Return (U T_1 U*, ..., U T_d U*) after checking that U is unitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (t.dim_h, t.dim_h):
        raise ShapeError(f"unitary must be {t.dim_h} x {t.dim_h}, got {u.shape}")
    if op_norm(u.conj().T @ u - np.eye(t.dim_h)) > max(tol.eps_id, 1e-12 * t.dim_h):
        raise NotUnitary("conjugating matrix is not unitary within tolerance")
    return load_tuple([u @ op @ u.conj().T for op in t.ops], tol=tol)
