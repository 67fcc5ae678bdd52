"""Independent reference computations that the library must agree with.

theta_reference evaluates the characteristic function one point at a time
by the plain formula: build B(z) and the full dimH x tilde_dim block row
Z(z) block by block, solve (I - B(z)) X = Z(z) Dtilde, then compress by the
range bases,

    theta(z) = W* (-Ttilde + Delta X) V.

It shares no code with the batched evaluation in cnpcurv.charfn, so
agreement between the two checks the monomial table, the block-adjoint and
Dtilde V contractions and the stacked solve.

purity_reference sums the purity series sum_alpha a_alpha T^alpha Delta^2
(T^alpha)* one multi-index at a time over a table of every power T^alpha.
cnpcurv.tuples.purity sums a_n sigma^n(Delta^2) degree by degree instead,
which equals it only because T commutes and a_alpha = a_n n!/alpha!.

nilpotency_degree_reference is the walk cnpcurv.tuples.nilpotency_degree
ran before it kept only the pure powers (T_i/c)^k: it builds every T^alpha
of each degree from the degree below and takes the spectral norm of each.

fd_by_grading_reference is the per-degree graded dimension: for each n it
builds the multiplier truncated to degree n from the Taylor series and
takes the numerical rank of that whole matrix.  cnpcurv.fibredim.fd_by_grading
forms neither: it counts the singular values of dimH x dimH factors of
I - p_n from the sigma walk, which agrees only because M_theta M_theta* =
I - L L* and L* P_n L = p_n.  Where a truncated multiplier is rounding noise
(the low degrees of a Jordan block conjugated by a unitary) the reference's
relative rank rule counts the noise as full rank, so the two are compared
only where no truncated multiplier is rounding noise.

profile_from_series builds the degree profile the way the library did
before it read the sigma traces: c_n sums trace(A_gamma A_gamma*) over the
Taylor coefficients of degree n (coeff and coeff_gram_trace read them).
cnpcurv.curvature.DegreeProfile.build gets the same numbers from the
traces u_m = tr sigma^m(Delta^2) and one scalar convolution, without the
Taylor series.

dimh_integrand is the Monte-Carlo integrand rank_delta - ||theta(z)||_F^2
from the dimH side alone, by the pointwise identity
(1 - k_N(|z|^2)) ||(I - B_N(z))^{-*} Delta||_F^2 of ROADMAP item 1: it reads
no Dtilde, V or range basis, and forms the small quantity directly where
the library gets it by cancellation.

tilde_reference builds the tilde side (Dtilde, V, rank_d and the
intertwining residual) from a block row of its own, over monomial_powers,
and the package's Delta, by the code cnpcurv.tuples.defect_package ran
eagerly before the package built that side on first read; the lazy side
must equal it bit for bit.

block_sum_reference sums the defect series S_N = sum b_alpha T^alpha
(T^alpha)* one multi-index at a time over monomial_powers.
cnpcurv.tuples.defect_package sums b_n sigma^n(I) along the sigma walk
instead, which equals it only because T commutes and b_alpha = b_n n!/alpha!.

The dense graded traces (mz_matrix, phi_apply, trace_E/P, trace_phi_E,
dpsi_trace_partial, weighted_degree_trace, multiplier_gram,
series_identity_check, factx_check, trace_table) compute the per-degree
traces of M_phi M_phi* on a truncated polynomial space.  They share no code
with the degree profile in cnpcurv.curvature, which reads the same numbers
off the Taylor coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cnpcurv.comb import MultiIndex, as_multi_index, enumerate_degree, multinomial, q
from cnpcurv.config import DEFAULT, Tolerances
from cnpcurv.curvature import DegreeProfile
from cnpcurv.errors import HorizonExceeded
from cnpcurv.fibredim import _numerical_ranks
from cnpcurv.kernel import KernelSpec, weights
from cnpcurv.traces import PolySpace as _LibPolySpace
from cnpcurv.traces import multiplier_matrix
from cnpcurv.tuples import _degree_powers, _psqrt, _range_basis, op_norm


def block_row_reference(t, k, n_op: int) -> np.ndarray:
    """Ttilde = [sqrt(b_alpha) T^alpha] over 1 <= |alpha| <= n_op with
    b_{|alpha|} > 0, by degree then lexicographic."""
    powers = monomial_powers(t, n_op)
    blocks = [
        np.sqrt(k.b_of(alpha)) * powers[alpha.entries]
        for n in range(1, n_op + 1) if k.b[n] > 0.0
        for alpha in enumerate_degree(t.d, n)
    ]
    return np.hstack(blocks) if blocks else np.zeros((t.dim_h, 0), dtype=complex)


def block_sum_reference(t, k, n_op: int) -> np.ndarray:
    """S_N = sum b_alpha T^alpha (T^alpha)* over 1 <= |alpha| <= n_op with
    b_{|alpha|} > 0, one multi-index at a time."""
    powers = monomial_powers(t, n_op)
    s_n = np.zeros((t.dim_h, t.dim_h), dtype=complex)
    for n in range(1, n_op + 1):
        if k.b[n] <= 0.0:
            continue
        for alpha in enumerate_degree(t.d, n):
            ta = powers[alpha.entries]
            s_n += k.b_of(alpha) * (ta @ ta.conj().T)
    return s_n


def tilde_reference(pkg, tol: Tolerances = DEFAULT):
    """(Dtilde, V, rank_d, || Ttilde Dtilde - Delta Ttilde ||), eagerly."""
    t_tilde, delta = block_row_reference(pkg.t, pkg.kernel, pkg.n_op), pkg.delta
    gram = t_tilde.conj().T @ t_tilde
    d_tilde, tvals, tvecs = _psqrt(np.eye(gram.shape[0]) - gram, clamp_top=None)
    v = _range_basis(tvals, tvecs, tol.eps_rank)
    intertwine = op_norm(t_tilde @ d_tilde - delta @ t_tilde)
    return d_tilde, v, v.shape[1], intertwine


def _z_power(z: np.ndarray, alpha) -> complex:
    out = complex(1.0)
    for zi, e in zip(z, alpha.entries):
        if e:
            out *= zi**e
    return out


def resolvent_input(pkg, k, z):
    """B(z) = Z(z) Ttilde* as a dimH x dimH matrix and the block row Z(z).

    The alpha-block of Ttilde is sqrt(b_alpha) T^alpha, so
    b_alpha z^alpha (T^alpha)* is sqrt(b_alpha) z^alpha times the block's
    adjoint."""
    dim = pkg.dim_h
    b = np.zeros((dim, dim), dtype=complex)
    z_row = np.zeros((dim, pkg.tilde_dim), dtype=complex)
    eye = np.eye(dim)
    for idx, alpha in enumerate(pkg.tilde_index_set):
        psi = np.sqrt(k.b_of(alpha)) * _z_power(z, alpha)
        cols = slice(idx * dim, (idx + 1) * dim)
        b += psi * pkg.t_tilde[:, cols].conj().T
        z_row[:, cols] = psi * eye
    return b, z_row


def theta_reference(pkg, k, z) -> np.ndarray:
    """theta(z) as a rank_delta x rank_d matrix, one point, no gates."""
    z = np.asarray(z, dtype=complex)
    b, z_row = resolvent_input(pkg, k, z)
    x = np.linalg.solve(np.eye(pkg.dim_h) - b, z_row @ pkg.d_tilde)
    return pkg.w.conj().T @ (-pkg.t_tilde + pkg.delta @ x) @ pkg.v


def dimh_integrand(pkg, k, points) -> np.ndarray:
    """(1 - k_N(|z|^2)) ||(I - B_N(z))^{-*} Delta||_F^2 at each point, one
    point at a time, with k_N(x) = sum_{1 <= n <= n_op} b_n x^n."""
    out = []
    for z in np.asarray(points, dtype=complex):
        b, _ = resolvent_input(pkg, k, z)
        x = float(np.vdot(z, z).real)
        k_n = sum(float(k.b[n]) * x**n for n in range(1, pkg.n_op + 1))
        r = np.linalg.solve((np.eye(pkg.dim_h) - b).conj().T, pkg.delta)
        out.append((1.0 - k_n) * float(np.sum(np.abs(r) ** 2)))
    return np.array(out)


def monomial_powers(t, max_degree: int) -> dict[tuple[int, ...], np.ndarray]:
    """All monomials T^alpha for |alpha| <= max_degree, built degree by degree."""
    dim = t.dim_h
    powers: dict[tuple[int, ...], np.ndarray] = {
        (0,) * t.d: np.eye(dim, dtype=complex)
    }
    for n in range(1, max_degree + 1):
        for alpha in enumerate_degree(t.d, n):
            a = alpha.entries
            i = next(k for k, e in enumerate(a) if e > 0)
            prev = a[:i] + (a[i] - 1,) + a[i + 1 :]
            powers[a] = t.ops[i] @ powers[prev]
    return powers


def nilpotency_degree_reference(t) -> int | None:
    """The level-table walk: every T^alpha of each degree, two degrees alive."""
    c = max(t.norms() + [1.0])
    for m, level in enumerate(_degree_powers([op / c for op in t.ops], t.dim_h), start=1):
        if all(op_norm(ta) <= 1e-12 for _, ta in level):
            return m
    return None


def purity_reference(t, k, pkg, n_op: int) -> np.ndarray:
    """The purity partial sum sum_{|alpha| <= n_op} a_alpha T^alpha Delta^2
    (T^alpha)*, one multi-index at a time."""
    dim = t.dim_h
    delta_sq = pkg.delta @ pkg.delta
    powers = monomial_powers(t, n_op)
    p = np.zeros((dim, dim), dtype=complex)
    for n in range(0, n_op + 1):
        for alpha in enumerate_degree(t.d, n):
            ta = powers[alpha.entries]
            p += k.a_of(alpha) * (ta @ delta_sq @ ta.conj().T)
    return p


def fd_by_grading_reference(
    series,
    k: KernelSpec,
    n_max: int,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """dim(P_n Ran M_theta) / q_d(n) for n = 0..n_max.

    The column space of the multiplication matrix truncated to source and
    target degree n is exactly P_n applied to the range: a source monomial
    of degree above n contributes nothing below degree n+1."""
    if n_max > k.N:
        raise HorizonExceeded(f"n_max = {n_max} beyond kernel horizon {k.N}")
    if not series.coeffs:
        return np.zeros(n_max + 1)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        m = multiplier_matrix(k, series.coeffs, n, n)
        out[n] = _numerical_ranks(m[None], tol.eps_rank)[0] / q(k.d, n)
    return out


def coeff(series, alpha) -> np.ndarray:
    """A_alpha of the series, zero when not stored."""
    key = tuple(alpha.entries) if isinstance(alpha, MultiIndex) else tuple(alpha)
    a = series.coeffs.get(key)
    if a is None:
        return np.zeros((series.rank_delta, series.rank_d), dtype=complex)
    return a


def coeff_gram_trace(series, alpha) -> float:
    """trace(A_alpha A_alpha*)."""
    a = coeff(series, alpha)
    return float(np.sum(np.abs(a) ** 2))


def profile_from_series(series, k: KernelSpec, n_max: int = 0) -> DegreeProfile:
    """The one pass over the Taylor coefficients.  Raises HorizonExceeded
    when n_max lies beyond the kernel horizon."""
    if n_max > k.N:
        raise HorizonExceeded(f"degree {n_max} beyond kernel horizon {k.N}")
    c = np.zeros(series.n_theta + 1)
    for key in series.coeffs:
        n = sum(key)
        t = coeff_gram_trace(series, key)
        if t:
            c[n] += t / (q(k.d - 1, n) * multinomial(key))
    t_e = np.empty(n_max + 1)
    for n in range(n_max + 1):
        m = min(n, series.n_theta)
        t_e[n] = float(np.dot(k.a[n - m : n + 1][::-1], c[: m + 1]) / k.a[n])
    return DegreeProfile(kernel=k, c=c, t_e=t_e)


# -- dense graded traces ----------------------------------------------------
#
# Truncated-operator routes to the per-degree traces of M_phi M_phi*.  They
# share no code with cnpcurv.curvature.DegreeProfile: the Gram matrix is
# built from the library's multiplication matrix, and every trace is read
# off its degree blocks.  Per-degree traces are exact as long as the
# requested degree stays within the truncation, because the raising maps
# compressed at the top only affect higher degrees.


class PolySpace(_LibPolySpace):
    """The library's index bookkeeping plus the degree blocks, norm factors
    and random Hermitian draws the dense oracles need."""

    def degree_slice(self, n: int) -> slice:
        """Flat indices of the homogeneous degree-n block."""
        if n > self.max_degree:
            raise HorizonExceeded(
                f"degree {n} beyond space truncation {self.max_degree}"
            )
        first = sum(1 for b in self.betas if b.degree < n)
        count = sum(1 for b in self.betas if b.degree == n)
        return slice(first * self.r, (first + count) * self.r)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of each flat index."""
        return np.repeat([b.degree for b in self.betas], self.r)

    def norm_factor(self, beta, target) -> float:
        """sqrt(a_beta / a_target): the matrix element of raising beta to
        target in the orthonormal basis."""
        k = self.kernel
        b, t = as_multi_index(beta), as_multi_index(target)
        return float(np.sqrt(k.a_of(b) / k.a_of(t)))

    def random_hermitian(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        g = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
            (self.dim, self.dim)
        )
        return scale * 0.5 * (g + g.conj().T)


def mz_matrix(space: PolySpace, alpha) -> np.ndarray:
    """Matrix of M_z^alpha (x) I: eps_beta (x) e_j maps to
    sqrt(a_beta / a_{alpha+beta}) eps_{alpha+beta} (x) e_j, compressed to the
    truncation (images beyond max_degree are dropped)."""
    a = as_multi_index(alpha)
    if a.degree > space.max_degree:
        raise HorizonExceeded(
            f"|alpha| = {a.degree} beyond space truncation {space.max_degree}"
        )
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for beta in space.betas:
        if beta.degree + a.degree > space.max_degree:
            continue
        target = beta + a
        f = space.norm_factor(beta, target)
        for j in range(space.r):
            m[space.flat(target, j), space.flat(beta, j)] = f
    return m


def _raise_conjugate(space: PolySpace, x: np.ndarray, alpha: MultiIndex) -> np.ndarray:
    """(M^alpha (x) I) X (M^alpha (x) I)* without materializing M^alpha."""
    src, tgt, fac = [], [], []
    for beta in space.betas:
        if beta.degree + alpha.degree > space.max_degree:
            continue
        target = beta + alpha
        f = space.norm_factor(beta, target)
        for j in range(space.r):
            src.append(space.flat(beta, j))
            tgt.append(space.flat(target, j))
            fac.append(f)
    out = np.zeros_like(x)
    if not src:
        return out
    src_a, tgt_a = np.array(src), np.array(tgt)
    fac_a = np.array(fac)
    out[np.ix_(tgt_a, tgt_a)] = (fac_a[:, None] * fac_a[None, :]) * x[
        np.ix_(src_a, src_a)
    ]
    return out


def phi_apply(space: PolySpace, x: np.ndarray, max_alpha_degree: int | None = None) -> np.ndarray:
    """Truncated completely positive map sum_alpha b_alpha (M^alpha (x) I) X
    (M^alpha (x) I)*.

    Per-degree traces against the homogeneous projections are exact for every
    degree <= max_degree, since only alpha with |alpha| <= degree contribute
    there and top-compression affects higher degrees alone.
    """
    k = space.kernel
    top = space.max_degree if max_alpha_degree is None else min(max_alpha_degree, space.max_degree)
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for n in range(1, top + 1):
        if k.b[n] == 0.0:
            continue
        for alpha in enumerate_degree(k.d, n):
            out += k.b_of(alpha) * _raise_conjugate(space, np.asarray(x, dtype=complex), alpha)
    return out


def _real_trace(value: complex, hermitian_scale: float, tol: Tolerances) -> float:
    if abs(value.imag) > tol.eps_id * max(1.0, hermitian_scale):
        raise ValueError(
            f"trace has imaginary residual {value.imag:.3e}; operator not Hermitian?"
        )
    return float(value.real)


def trace_E(space: PolySpace, x: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> float:
    """trace(X E_n): partial trace over the homogeneous degree-n block."""
    sl = space.degree_slice(n)
    val = complex(np.trace(x[sl, sl]))
    return _real_trace(val, float(np.abs(np.diagonal(x)).max(initial=0.0)), tol)


def trace_P(space: PolySpace, x: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> float:
    """trace(X P_n) = sum_{i<=n} trace(X E_i)."""
    return sum(trace_E(space, x, i, tol) for i in range(n + 1))


def _monomial_diagonal(space: PolySpace, x: np.ndarray) -> dict[tuple[int, ...], float]:
    """sum_j X[(beta, j), (beta, j)] for each monomial beta."""
    diag = np.real(np.diagonal(x))
    out: dict[tuple[int, ...], float] = {}
    for i, beta in enumerate(space.betas):
        out[beta.entries] = float(diag[i * space.r : (i + 1) * space.r].sum())
    return out


def trace_phi_E(space: PolySpace, x: np.ndarray, n: int) -> float:
    """trace(Phi(X) E_n) summed directly from the definition:

        sum_{1<=|alpha|<=n} b_alpha sum_{|beta|=n-|alpha|} (a_beta / a_{alpha+beta})
            sum_j <X eps_beta e_j, eps_beta e_j>,

    using that (M^alpha)* E_n M^alpha is diagonal in the monomial basis.
    No weight-row or combinatorial reduction enters here, so this is an
    independent route against the weighted form.
    """
    if n > space.max_degree:
        raise HorizonExceeded(f"degree {n} beyond space truncation {space.max_degree}")
    if n == 0:
        return 0.0
    k = space.kernel
    diag = _monomial_diagonal(space, x)
    total = 0.0
    for m in range(1, n + 1):
        if k.b[m] == 0.0:
            continue
        for alpha in enumerate_degree(k.d, m):
            b_alpha = k.b_of(alpha)
            for beta in enumerate_degree(k.d, n - m):
                ratio = k.a_of(beta) / k.a_of(alpha + beta)
                total += b_alpha * ratio * diag[beta.entries]
    return total


def dpsi_trace_partial(
    space: PolySpace, x: np.ndarray, n: int, tol: Tolerances = DEFAULT
) -> float:
    """trace(dPsi(X) Ptilde_n) = sum_{i<=n} a_i / q_{d-1}(i)
    trace((X - Phi(X)) E_i), evaluated without materializing the inclusion
    into the Hardy space."""
    if n > space.max_degree:
        raise HorizonExceeded(f"degree {n} beyond space truncation {space.max_degree}")
    k = space.kernel
    total = 0.0
    for i in range(n + 1):
        diff = trace_E(space, x, i, tol) - trace_phi_E(space, x, i)
        total += float(k.a[i]) / q(k.d - 1, i) * diff
    return total


def weighted_degree_trace(space: PolySpace, x: np.ndarray, n: int, tol: Tolerances = DEFAULT) -> float:
    """The weight-row form sum_{i<=n} w_{i,n} trace(X E_i) / q_{d-1}(i).

    Cross-check partner of dpsi_trace_partial: the two agree exactly by the
    multinomial-ratio identity, but share no code path beyond the raw
    per-degree traces.
    """
    k = space.kernel
    row = weights(k, n).w
    return sum(
        row[i] * trace_E(space, x, i, tol) / q(k.d - 1, i) for i in range(n + 1)
    )


def _series_degree(coeffs: dict[tuple[int, ...], np.ndarray]) -> int:
    degs = [sum(key) for key, a in coeffs.items() if np.any(a)]
    return max(degs) if degs else 0


def multiplier_gram(
    kernel: KernelSpec,
    coeffs: dict[tuple[int, ...], np.ndarray],
    max_degree: int,
) -> tuple[PolySpace, np.ndarray]:
    """The operator M_phi M_phi* on the truncated target space.

    Exact on every degree block <= max_degree: a source monomial of degree
    beyond max_degree cannot reach a retained target degree.
    """
    first = next(iter(coeffs.values()))
    r_tgt = first.shape[0]
    m = multiplier_matrix(kernel, coeffs, max_degree, max_degree)
    tgt = PolySpace(kernel, r_tgt, max_degree)
    return tgt, m @ m.conj().T


@dataclass(frozen=True)
class SeriesIdentityCheck:
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def series_identity_check(
    kernel: KernelSpec,
    coeffs: dict[tuple[int, ...], np.ndarray],
    n: int,
    tol: Tolerances = DEFAULT,
) -> SeriesIdentityCheck:
    """Two routes to trace(M_phi M_phi* E_n) / q_{d-1}(n).

    lhs: explicit multiplication matrix, Frobenius norm of its degree-n rows.
    rhs: the coefficient double sum
         sum_{i<=n} sum_{|alpha|=i} (a_{n-i}/a_n) (1/q_{d-1}(i))
                    trace(A_alpha A_alpha*) / binom(i, alpha).
    """
    if n > kernel.N:
        raise HorizonExceeded(f"degree {n} beyond kernel horizon {kernel.N}")
    first = next(iter(coeffs.values()))
    r_tgt = first.shape[0]
    m = multiplier_matrix(kernel, coeffs, n, n)
    tgt = PolySpace(kernel, r_tgt, n)
    rows = tgt.degree_slice(n)
    lhs = float(np.sum(np.abs(m[rows, :]) ** 2)) / q(kernel.d - 1, n)

    rhs = 0.0
    for i in range(n + 1):
        ratio = float(kernel.a[n - i] / kernel.a[n]) / q(kernel.d - 1, i)
        for alpha in enumerate_degree(kernel.d, i):
            key = alpha.entries
            a = coeffs.get(key)
            if a is None or not np.any(a):
                continue
            rhs += ratio * float(np.sum(np.abs(a) ** 2)) / multinomial(alpha)
    return SeriesIdentityCheck(lhs=lhs, rhs=rhs)


def factx_check(
    kernel: KernelSpec,
    coeffs: dict[tuple[int, ...], np.ndarray],
    max_degree: int,
    n_terms: int,
) -> float:
    """Residual of the strong-convergence reconstruction

        sum_{|alpha| <= n_terms} a_alpha (M^alpha (x) I) (X - Phi(X)) (M^alpha (x) I)*
            -> X = M_phi M_phi*

    measured in operator norm on the degree block
    <= max_degree - n_terms - deg(phi), where truncation cannot leak."""
    tgt, x = multiplier_gram(kernel, coeffs, max_degree)
    resid = x - phi_apply(tgt, x)
    acc = np.zeros_like(x)
    for n in range(0, n_terms + 1):
        for alpha in enumerate_degree(kernel.d, n):
            acc += kernel.a_of(alpha) * _raise_conjugate(tgt, resid, alpha)
    window = max_degree - n_terms - _series_degree(coeffs)
    if window < 0:
        raise HorizonExceeded(
            "truncation too small: no exact low-degree block remains"
        )
    keep = tgt.degrees <= window
    diff = (acc - x)[np.ix_(keep, keep)]
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


@dataclass(frozen=True)
class GradedTraceRow:
    n: int
    t_e: float
    t_e_normalized: float
    t_p_normalized: float
    dpsi_partial: float


def trace_table(
    space: PolySpace, x: np.ndarray, n_max: int, tol: Tolerances = DEFAULT
) -> list[GradedTraceRow]:
    """Per-degree trace summary rows for a Hermitian operator."""
    k = space.kernel
    rows = []
    running_p = 0.0
    for n in range(n_max + 1):
        te = trace_E(space, x, n, tol)
        running_p += te
        rows.append(
            GradedTraceRow(
                n=n,
                t_e=te,
                t_e_normalized=te / q(k.d - 1, n),
                t_p_normalized=running_p / q(k.d, n),
                dpsi_partial=dpsi_trace_partial(space, x, n, tol),
            )
        )
    return rows
