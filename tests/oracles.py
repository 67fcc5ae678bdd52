"""Independent reference computations that the library must agree with.

theta_reference evaluates the characteristic function one point at a time
by the plain formula: build B(z) and the full dimH x tilde_dim block row
Z(z) block by block, solve (I - B(z)) X = Z(z) Dtilde, then compress by the
range bases,

    theta(z) = W* (-Ttilde + Delta X) V.

It shares no code with the batched evaluation in cnpcurv.charfn, so
agreement between the two checks the monomial table, the block-adjoint and
Dtilde V contractions and the stacked solve.
"""
from __future__ import annotations

import numpy as np


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
        block = pkg.t_tilde[:, pkg.block_slice(idx)]
        b += psi * block.conj().T
        z_row[:, pkg.block_slice(idx)] = psi * eye
    return b, z_row


def theta_reference(pkg, k, z) -> np.ndarray:
    """theta(z) as a rank_delta x rank_d matrix, one point, no gates."""
    z = np.asarray(z, dtype=complex)
    b, z_row = resolvent_input(pkg, k, z)
    x = np.linalg.solve(np.eye(pkg.dim_h) - b, z_row @ pkg.d_tilde)
    return pkg.w.conj().T @ (-pkg.t_tilde + pkg.delta @ x) @ pkg.v
