"""Commuting matrix tuples, the contraction test, and the defect package.

Given a commuting d-tuple T = (T_1..T_d) on C^dimH and a kernel, this module
builds the truncated defect series S_N = sum b_alpha T^alpha (T^alpha)*, the
defect operator Delta = (I - S_N)^{1/2}, the block-row operator Ttilde with
blocks sqrt(b_alpha) T^alpha, its defect Dtilde = (I - Ttilde* Ttilde)^{1/2},
and orthonormal bases of both ranges.  Blocks with b_{|alpha|} = 0 contribute
nothing to any of these operators (their columns of the block row vanish and
the corresponding directions are annihilated by every evaluation downstream),
so they are omitted from the block index set.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comb import MultiIndex, enumerate_degree
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


def nilpotency_degree(t: OperatorTuple) -> int | None:
    """Smallest m <= dimH with T^alpha = 0 for all |alpha| = m, if any.

    When it exists every graded series over alpha terminates exactly at
    degree m - 1.  The powers are taken of T / c with c = max(1, ||T_i||),
    so neither they nor the relative threshold 1e-12 c^m overflow; the walk
    stops at the first degree whose powers all vanish.
    """
    c = max(t.norms() + [1.0])
    for m, level in enumerate(_degree_powers([op / c for op in t.ops], t.dim_h), start=1):
        if all(op_norm(ta) <= 1e-12 for _, ta in level):
            return m
    return None


@dataclass(frozen=True)
class DefectPackage:
    """Defect data of a tuple relative to a kernel at horizon n_op.

    W (dimH x rank_delta) and V (tilde_dim x rank_d) are orthonormal bases of
    Ran Delta and Ran Dtilde.  tilde_index_set lists the blocks of the block
    row Ttilde (multi-indices alpha with 1 <= |alpha| <= n_op and
    b_{|alpha|} > 0, by degree then lexicographic).
    """

    n_op: int
    tilde_index_set: tuple[MultiIndex, ...]
    s_n: np.ndarray
    delta: np.ndarray
    rank_delta: int
    w: np.ndarray
    t_tilde: np.ndarray
    d_tilde: np.ndarray
    rank_d: int
    v: np.ndarray
    tail_bound: float
    delta_identity_residual: float   # || Delta^2 + Ttilde Ttilde* - I ||
    intertwine_residual: float       # || Ttilde Dtilde - Delta Ttilde ||
    kernel_fingerprint: tuple
    dim_h: int
    nilpotent_degree: int | None

    @property
    def tilde_dim(self) -> int:
        return self.t_tilde.shape[1]

    def block_slice(self, k: int) -> slice:
        return slice(k * self.dim_h, (k + 1) * self.dim_h)


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
    """Build S_N, Delta, Ttilde, Dtilde and the range bases at horizon n_op.

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
    index_set = []
    s_n = np.zeros((dim, dim), dtype=complex)
    blocks = []
    for n, level in enumerate(_degree_powers(t.ops, n_op), start=1):
        if k.b[n] <= 0.0:
            continue
        for alpha, ta in level:
            b_alpha = k.b_of(alpha)
            s_n += b_alpha * (ta @ ta.conj().T)
            blocks.append(np.sqrt(b_alpha) * ta)
            index_set.append(alpha)
    t_tilde = (
        np.hstack(blocks) if blocks else np.zeros((dim, 0), dtype=complex)
    )

    lam_max = float(np.linalg.eigvalsh(0.5 * (s_n + s_n.conj().T))[-1]) if dim else 0.0
    if lam_max > 1.0 + tol.eps_id:
        raise NotContraction(
            f"largest eigenvalue of the defect series is {lam_max:.6g} > 1"
        )

    delta, dvals, dvecs = _psqrt(np.eye(dim) - s_n, clamp_top=1.0)
    w = _range_basis(dvals, dvecs, tol.eps_rank)

    gram = t_tilde.conj().T @ t_tilde
    d_tilde, tvals, tvecs = _psqrt(np.eye(gram.shape[0]) - gram, clamp_top=None)
    v = _range_basis(tvals, tvecs, tol.eps_rank)

    id_res = op_norm(delta @ delta + t_tilde @ t_tilde.conj().T - np.eye(dim))
    intertwine = op_norm(t_tilde @ d_tilde - delta @ t_tilde)

    return DefectPackage(
        n_op=n_op,
        tilde_index_set=tuple(index_set),
        s_n=s_n,
        delta=delta,
        rank_delta=w.shape[1],
        w=w,
        t_tilde=t_tilde,
        d_tilde=d_tilde,
        rank_d=v.shape[1],
        v=v,
        tail_bound=tail,
        delta_identity_residual=id_res,
        intertwine_residual=intertwine,
        kernel_fingerprint=k.fingerprint(),
        dim_h=dim,
        nilpotent_degree=nd,
    )


@dataclass(frozen=True)
class PurityReport:
    """Partial sum of sum_alpha a_alpha T^alpha Delta^2 (T^alpha)* and its
    distance from the identity."""

    p_n: np.ndarray
    purity_residual: float
    exact: bool
    n_op: int


def purity(
    t: OperatorTuple,
    k: KernelSpec,
    pkg: DefectPackage,
    n_op: int | None = None,
) -> PurityReport:
    """Evaluate the purity series partial sum at horizon n_op.

    Degree n of the series is a_n sigma^n(Delta^2) with sigma(X) =
    sum_i T_i X T_i*, because T commutes and a_alpha = a_n n!/alpha!.
    exact is True when the tuple is jointly nilpotent and the horizon covers
    every nonvanishing term, in which case the series has terminated.
    """
    if n_op is None:
        n_op = pkg.n_op
    if n_op > k.N:
        raise HorizonExceeded(f"n_op = {n_op} beyond kernel horizon N = {k.N}")
    x = pkg.delta @ pkg.delta
    p = float(k.a[0]) * x
    for n in range(1, n_op + 1):
        x = sum(ti @ x @ ti.conj().T for ti in t.ops)
        p += float(k.a[n]) * x
    residual = op_norm(np.eye(t.dim_h) - p)
    nd = pkg.nilpotent_degree
    exact = nd is not None and n_op >= nd - 1
    return PurityReport(p_n=p, purity_residual=residual, exact=exact, n_op=n_op)


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
