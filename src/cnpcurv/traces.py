"""The multiplication matrix on truncated vector-valued polynomial spaces.

The ambient space is span{eps_beta (x) e_j : |beta| <= max_degree, j < r}
where eps_beta = sqrt(a_beta) z^beta is the orthonormal monomial basis for
the kernel's norms.  No library code builds this matrix:
fibredim.fd_by_grading counts the graded ranks of M_theta on dimH x dimH
factors of the sigma walk instead.
It serves the tests as an oracle, and it stays in the library because
perfbench/tracer.py names multiplier_matrix.
"""
from __future__ import annotations

import numpy as np

from .comb import MultiIndex, enumerate_degree
from .errors import HorizonExceeded
from .kernel import KernelSpec

__all__ = ["PolySpace", "multiplier_matrix"]


class PolySpace:
    """Index bookkeeping for the truncated space of C^r-valued polynomials."""

    def __init__(self, kernel: KernelSpec, r: int, max_degree: int):
        if r < 1:
            raise ValueError("coefficient dimension r must be >= 1")
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if max_degree > kernel.N:
            raise HorizonExceeded(
                f"max_degree = {max_degree} beyond kernel horizon N = {kernel.N}"
            )
        self.kernel = kernel
        self.r = r
        self.max_degree = max_degree
        self.betas: list[MultiIndex] = [
            beta for n in range(max_degree + 1) for beta in enumerate_degree(kernel.d, n)
        ]
        self._pos = {b.entries: i for i, b in enumerate(self.betas)}

    @property
    def dim(self) -> int:
        return len(self.betas) * self.r

    def flat(self, beta, j: int) -> int:
        """Flat index of eps_beta (x) e_j."""
        key = beta.entries if isinstance(beta, MultiIndex) else tuple(beta)
        return self._pos[key] * self.r + j


def multiplier_matrix(
    kernel: KernelSpec,
    coeffs: dict[tuple[int, ...], np.ndarray],
    src_degree: int,
    tgt_degree: int,
) -> np.ndarray:
    """Matrix of multiplication by phi(z) = sum A_gamma z^gamma from the
    truncated source space (deg <= src_degree) to the truncated target space
    (deg <= tgt_degree), in orthonormal monomial coordinates:

        entry[(mu, i), (beta, j)] = sqrt(a_beta / a_mu) A_{mu-beta}[i, j].
    """
    first = next(iter(coeffs.values()))
    r_tgt, r_src = first.shape
    src = PolySpace(kernel, r_src, src_degree)
    tgt = PolySpace(kernel, r_tgt, tgt_degree)
    m = np.zeros((tgt.dim, src.dim), dtype=complex)
    for key, a in coeffs.items():
        gdeg = sum(key)
        if not np.any(a):
            continue
        for beta in src.betas:
            if beta.degree + gdeg > tgt_degree:
                continue
            mu = beta + MultiIndex(key)
            f = np.sqrt(kernel.a_of(beta) / kernel.a_of(mu))
            rows = [tgt.flat(mu, i) for i in range(r_tgt)]
            cols = [src.flat(beta, j) for j in range(r_src)]
            m[np.ix_(rows, cols)] += f * a
    return m
