"""Properties of the degree profile on random small nilpotent tuples.

* Every profile view (t_E, the averaged P-quotient, the dPsi partial sums)
  equals the dense oracle's trace table of M_theta M_theta* (tests/oracles.py),
  which reads the same numbers off the degree blocks of an explicit Gram
  matrix and shares no code with the profile.
* Direct sums add: theta_{T (+) S} is theta_T (+) theta_S up to unitaries of
  the range bases, so c_n(T (+) S) = c_n(T) + c_n(S) at a common horizon.
"""
import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.curvature import DegreeProfile, ordering_rows

from conftest import random_unitary, truncated_shift_ops
from oracles import multiplier_gram, trace_table

KERNELS = {1: ("szego", "drury-arveson", "dirichlet"), 2: ("drury-arveson", "dirichlet")}
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _nilpotent_ops(rng: np.random.Generator, d: int, size: int) -> list[np.ndarray]:
    """d = 1: a strictly lower triangular size x size matrix; d = 2: random
    mixtures of the truncated shifts of top degree size (dimH 3 or 6).
    Conjugated by a random unitary, sum of squared norms at most 0.8."""
    if d == 1:
        ops = [np.tril(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)), -1)]
    else:
        shifts = truncated_shift_ops(2, size)
        ops = [
            sum(c * s for c, s in zip(rng.standard_normal(2) + 1j * rng.standard_normal(2), shifts))
            for _ in range(2)
        ]
    u = random_unitary(rng, ops[0].shape[0])
    ops = [u @ m @ u.conj().T for m in ops]
    rho = sum(np.linalg.norm(m, 2) ** 2 for m in ops)
    return [np.sqrt(0.8 / rho) * m for m in ops] if rho > 0.8 else ops


@st.composite
def cases(draw):
    """(d, kernel name, seed, tuple size)."""
    d = draw(st.sampled_from([1, 2]))
    size = draw(st.integers(1, 6)) if d == 1 else draw(st.sampled_from([2, 3]))
    return d, draw(st.sampled_from(KERNELS[d])), draw(st.integers(0, 2**32 - 1)), size


@SETTINGS
@given(case=cases(), n_max=st.integers(0, 6))
def test_profile_matches_dense_oracle(case, n_max):
    d, name, seed, size = case
    k = cc.preset(name, d=d, N=10)
    t = cc.load_tuple(_nilpotent_ops(np.random.default_rng(seed), d, size))
    pkg = cc.defect_package(t, k)
    series = cc.taylor(pkg, k)
    assume(series.rank_delta > 0 and series.rank_d > 0)
    rows = ordering_rows(DegreeProfile.build(series, k, n_max))
    space, x = multiplier_gram(k, series.coeffs, max_degree=n_max)
    for row, ref in zip(rows, trace_table(space, x, n_max), strict=True):
        assert row["n"] == ref.n
        for key in ("t_e_normalized", "t_p_normalized", "dpsi_partial"):
            assert abs(row[key] - getattr(ref, key)) <= 1e-10, (key, row, ref)


@SETTINGS
@given(first=cases(), second_seed=st.integers(0, 2**32 - 1), second_size=st.integers(1, 6))
def test_direct_sum_adds_degree_profiles(first, second_seed, second_size):
    d, name, seed, size = first
    k = cc.preset(name, d=d, N=10)
    ops_t = _nilpotent_ops(np.random.default_rng(seed), d, size)
    ops_s = _nilpotent_ops(np.random.default_rng(second_seed), d, second_size if d == 1 else 2)
    ops_sum = [
        np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])
        for a, b in zip(ops_t, ops_s)
    ]
    tuples = [cc.load_tuple(ops) for ops in (ops_t, ops_s, ops_sum)]
    horizon = max(cc.nilpotency_degree(t) for t in tuples)
    c = []
    for t in tuples:
        pkg = cc.defect_package(t, k, n_op=horizon)
        c.append(DegreeProfile.build(cc.taylor(pkg, k, n_theta=horizon), k).c)
    assert np.allclose(c[2], c[0] + c[1], rtol=1e-10, atol=1e-10)
