"""Properties of the degree profile on random small nilpotent tuples.

* Every profile view (t_E, the averaged P-quotient, the dPsi partial sums)
  equals the dense oracle's trace table of M_theta M_theta* (tests/oracles.py),
  which reads the same numbers off the degree blocks of an explicit Gram
  matrix and shares no code with the profile.
* Direct sums add: theta_{T (+) S} is theta_T (+) theta_S up to unitaries of
  the range bases, so c_n(T (+) S) = c_n(T) + c_n(S) at a common horizon.
* The profile the library builds from the sigma traces equals the one the
  Taylor coefficients give (tests/oracles.py:profile_from_series), on
  nilpotent and non-nilpotent tuples in d = 1, 2, 3 over every preset and
  two custom kernels, at default and explicit horizons.
* The Monte-Carlo integrand rank_delta - ||theta(z)||_F^2 the batched theta
  map gives equals its dimH-side form (tests/oracles.py:dimh_integrand) on
  the same tuples, at points of the ball up to radius 0.99.
* Where the Taylor series terminates (nilpotent tuples over szego and
  drury-arveson), its sum equals the per-point oracle
  (tests/oracles.py:theta_reference), which solves against the full block
  row Z(z) and shares no code with the realization taylor reads.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.charfn import _theta_map, sample_ball_points
from cnpcurv.curvature import DegreeProfile, ordering_rows

from conftest import random_unitary, truncated_shift_ops
from oracles import (
    dimh_integrand,
    multiplier_gram,
    profile_from_series,
    theta_reference,
    trace_table,
)

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
    rows = ordering_rows(DegreeProfile.build(pkg, k, n_max))
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
        c.append(DegreeProfile.build(pkg, k, n_theta=horizon).c)
    assert np.allclose(c[2], c[0] + c[1], rtol=1e-10, atol=1e-10)


@SETTINGS
@given(case=cases(), radius=st.floats(0.0, 0.5))
def test_terminating_series_sums_to_theta(case, radius):
    d, name, seed, size = case
    assume(name != "dirichlet")  # finite b-support: the series terminates
    k = cc.preset(name, d=d, N=12)
    t = cc.load_tuple(_nilpotent_ops(np.random.default_rng(seed), d, size))
    pkg = cc.defect_package(t, k)
    series = cc.taylor(pkg, k)
    assert series.is_polynomial
    points = sample_ball_points(d, 5, radius, seed % 2**31)
    got = series.evaluate(points)
    for z, theta in zip(points, got, strict=True):
        assert np.abs(theta - theta_reference(pkg, k, z)).max(initial=0.0) <= 1e-12


def _kernel(name: str, d: int, N: int) -> cc.KernelSpec:
    if name == "custom":  # a_n = 1/(n+1)^2: log-convex, so every b_n >= 0
        return cc.from_coefficients([Fraction(1, (n + 1) ** 2) for n in range(N + 1)], d=d)
    if name == "two-step":  # b = (1/2, 1/2, 0, ...): finite support, a not constant
        a = [Fraction(1), Fraction(1, 2)]
        while len(a) <= N:
            a.append((a[-1] + a[-2]) / 2)
        return cc.from_coefficients(a, d=d, name=name, b_support_bound=2)
    return cc.preset(name, d=d, N=N)


def _commuting_ops(rng: np.random.Generator, d: int, size: int, kind: str) -> list[np.ndarray]:
    """T_i = random combinations of commuting generators: A and A^2 for one
    random size x size matrix A ("power"; "nilpotent-power" makes A strictly
    lower triangular), or the truncated shifts of top degree 2 in d
    variables ("shift").  Sum of squared norms at most 0.8."""
    if kind == "shift":
        gens = truncated_shift_ops(d, 2)
    else:
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        gens = [np.tril(a, -1) if kind == "nilpotent-power" else a]
        gens.append(gens[0] @ gens[0])
    ops = [
        sum(c * g for c, g in zip(rng.standard_normal(len(gens)) + 1j * rng.standard_normal(len(gens)), gens))
        for _ in range(d)
    ]
    rho = sum(np.linalg.norm(m, 2) ** 2 for m in ops)
    return [np.sqrt(0.8 / rho) * m for m in ops] if rho > 0.8 else ops


@st.composite
def profile_cases(draw):
    """(tuple, kernel, n_op or None, n_max); non-nilpotent tuples always
    take an explicit n_op, nilpotent ones at least half of the time."""
    d = draw(st.integers(1, 3))
    names = ("drury-arveson", "dirichlet", "custom", "two-step") + (("szego",) if d == 1 else ())
    name = draw(st.sampled_from(names))
    kind = draw(st.sampled_from(("power", "nilpotent-power", "shift")))
    size = draw(st.integers(1, 5 if d < 3 else 3))
    ops = _commuting_ops(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, size, kind)
    # two-step: the default cut nd - 1 + 2 needs blocks up to degree 2
    explicit = kind == "power" or name == "two-step" or draw(st.booleans())
    n_op = draw(st.integers(2 if name == "two-step" else 1, 6)) if explicit else None
    return cc.load_tuple(ops), _kernel(name, d, 12), n_op, draw(st.integers(0, 8))


@SETTINGS
@given(case=profile_cases(), data=st.data())
def test_sigma_route_matches_taylor_oracle(case, data):
    t, k, n_op, n_max = case
    pkg = cc.defect_package(t, k, n_op=n_op)
    # explicit cuts past n_op, and past the kernel horizon N = 12, where b
    # is certified to vanish beyond them
    top = 16 if k.b_is_zero_beyond(pkg.n_op) else pkg.n_op
    n_theta = data.draw(st.none() | st.integers(0, top))
    got = DegreeProfile.build(pkg, k, n_max, n_theta)
    ref = profile_from_series(cc.taylor(pkg, k, n_theta), k, n_max)
    for key in ("c", "t_e", "t_p", "dpsi_partial"):
        a, b = getattr(got, key), getattr(ref, key)
        assert a.shape == b.shape, key
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), (key, a, b)


@pytest.mark.parametrize("name", ["drury-arveson", "two-step"])
def test_sigma_route_past_kernel_horizon(name):
    # b vanishes past n_op, so the cut may pass N = 12; the reciprocal series
    # of 1 - k_N then runs on from the b-recurrence, beyond the a-table
    k = _kernel(name, 1, 12)
    t = cc.load_tuple(_commuting_ops(np.random.default_rng(3), 1, 3, "power"))
    pkg = cc.defect_package(t, k, n_op=3)
    got = DegreeProfile.build(pkg, k, 8, n_theta=16)
    ref = profile_from_series(cc.taylor(pkg, k, n_theta=16), k, 8)
    assert np.all(np.abs(got.c - ref.c) <= 1e-12 * np.maximum(1.0, np.abs(ref.c)))


@SETTINGS
@given(case=profile_cases(), seed=st.integers(0, 2**32 - 1))
def test_dimh_integrand_matches_theta_map(case, seed):
    t, k, n_op, _ = case
    pkg = cc.defect_package(t, k, n_op=n_op)
    rng = np.random.default_rng(seed)
    points = sample_ball_points(t.d, 6, 1.0, seed) * (0.99 * rng.random(6))[:, None]
    got = _theta_map(
        pkg, k, points, lambda zc, th: pkg.rank_delta - np.sum(np.abs(th) ** 2, axis=(1, 2))
    )
    ref = dimh_integrand(pkg, k, points)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (got, ref)
