"""Shared generators for the test suite.

Random commuting jointly nilpotent tuples are built from compressed
coordinate-multiplication operators on truncated polynomial spaces (which
commute exactly), mixed by random polynomials without constant term, then
conjugated by a random unitary and rescaled into the contraction regime.
"""
from __future__ import annotations

import os

# one BLAS thread unless the caller chose otherwise: set before numpy loads,
# so a busy neighbour process cannot slow the suite by oversubscription
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json

import numpy as np
import pytest

import cnpcurv as cc
from cnpcurv.comb import enumerate_up_to_degree
from cnpcurv.tuples import op_norm


def truncated_shift_ops(d: int, top_degree: int) -> list[np.ndarray]:
    """Coordinate multiplication compressed to polynomials of degree
    < top_degree in d variables: commuting, jointly nilpotent of degree
    top_degree."""
    betas = enumerate_up_to_degree(d, top_degree - 1)
    pos = {b.entries: i for i, b in enumerate(betas)}
    dim = len(betas)
    ops = []
    for i in range(d):
        m = np.zeros((dim, dim), dtype=complex)
        for b in betas:
            if b.degree + 1 <= top_degree - 1:
                tgt = list(b.entries)
                tgt[i] += 1
                m[pos[tuple(tgt)], pos[b.entries]] = 1.0
        ops.append(m)
    return ops


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q_mat, r = np.linalg.qr(g)
    ph = np.diagonal(r)
    return q_mat * (ph / np.abs(ph))


def jordan_block(k: int) -> np.ndarray:
    """k x k nilpotent Jordan block with ones on the subdiagonal."""
    j = np.zeros((k, k), dtype=complex)
    for i in range(k - 1):
        j[i + 1, i] = 1.0
    return j


_STRUCTURES = [
    ("jordan", 1, None),
    ("jordan", 1, None),
    ("shift", 2, 2),   # dim 3
    ("shift", 2, 3),   # dim 6
    ("shift", 3, 2),   # dim 4
]


def random_nilpotent_tuple(rng: np.random.Generator, structure=None) -> cc.OperatorTuple:
    """A random jointly nilpotent commuting tuple, certified 1/s-contraction
    for every kernel with b-mass <= 1 (sum of squared norms kept below 0.8)."""
    kind, d, top = _STRUCTURES[rng.integers(len(_STRUCTURES))] if structure is None else structure
    if kind == "jordan":
        dim = int(rng.integers(2, 9))
        base = np.tril(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
            -1,
        )
        ops = [base]
    else:
        shifts = truncated_shift_ops(d, top)
        dim = shifts[0].shape[0]
        ops = []
        for _ in range(d):
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            m = sum(ci * s for ci, s in zip(c, shifts))
            if rng.random() < 0.5:
                cq = rng.standard_normal() + 1j * rng.standard_normal()
                m = m + cq * (shifts[0] @ shifts[-1])
            ops.append(m)
    u = random_unitary(rng, ops[0].shape[0])
    ops = [u @ m @ u.conj().T for m in ops]
    rho = sum(np.linalg.norm(m, 2) ** 2 for m in ops)
    if rho > 0.8:
        scale = np.sqrt(0.8 / rho)
        ops = [scale * m for m in ops]
    return cc.load_tuple(ops)


def random_commuting_tuple(rng, d: int, dim: int) -> cc.OperatorTuple:
    """Polynomials of degree 2 in one random matrix: commuting, not
    nilpotent, scaled to sum_i ||T_i||^2 = 0.7."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a /= op_norm(a)
    ops = []
    for _ in range(d):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ops.append(c[0] * np.eye(dim) + c[1] * a + c[2] * (a @ a))
    rho = sum(op_norm(m) ** 2 for m in ops)
    return cc.load_tuple([np.sqrt(0.7 / rho) * m for m in ops])


def write_tuple(path, ops):
    d = len(ops)
    dim = ops[0].shape[0]
    payload = {
        "d": d,
        "dimH": dim,
        "operators": [
            [[[float(e.real), float(e.imag)] for e in row] for row in op]
            for op in np.asarray(ops, dtype=complex)
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
