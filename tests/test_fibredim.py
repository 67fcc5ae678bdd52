"""Fibre dimension estimators: evaluation rank and graded dimensions."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.comb import q
from cnpcurv.errors import HorizonExceeded
from cnpcurv.fibredim import fd_by_grading, fd_report
from cnpcurv.pipeline import RunSettings, run_curvature
from cnpcurv.tuples import default_horizon

from conftest import (
    jordan_block,
    random_commuting_tuple,
    random_nilpotent_tuple,
    random_unitary,
    truncated_shift_ops,
)
from oracles import fd_by_grading_reference


def build(t, k, n_op=None, n_theta=None):
    pkg = cc.defect_package(t, k, n_op=n_op)
    series = cc.taylor(pkg, k, n_theta=n_theta)
    return pkg, series


class TestEvaluationRank:
    def test_jordan_is_one(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg, _ = build(t, k)
        assert fd_report(pkg, k).fd_eval == 1

    def test_zero_tuple_full_rank(self):
        for m in (1, 2, 3):
            t = cc.load_tuple([np.zeros((m, m))])
            k = cc.preset("drury-arveson", d=1, N=8)
            pkg, _ = build(t, k, n_op=1, n_theta=1)
            assert fd_report(pkg, k).fd_eval == m

    def test_report_labels_and_attainment(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg, _ = build(t, k)
        rep = fd_report(pkg, k, purity_residual=0.0)
        assert rep.label == "fd (GRS proxy)"
        assert rep.attained_fraction >= 0.95
        rep2 = fd_report(pkg, k, purity_residual=1.0)
        assert rep2.label == "generic evaluation rank"

    def test_minimum_sampling_guard(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg, _ = build(t, k)
        with pytest.raises(ValueError):
            fd_report(pkg, k, n_samples=5)

    def test_bounded_by_ranks(self, rng):
        for _ in range(5):
            t = random_nilpotent_tuple(rng)
            k = cc.preset("drury-arveson", d=t.d, N=12)
            pkg, _ = build(t, k)
            fd = fd_report(pkg, k).fd_eval
            assert fd <= min(pkg.rank_delta, pkg.rank_d)

    def test_invariant_under_conjugation(self, rng):
        t = random_nilpotent_tuple(rng)
        k = cc.preset("drury-arveson", d=t.d, N=12)
        pkg, _ = build(t, k)
        base = fd_report(pkg, k).fd_eval
        for _ in range(3):
            t2 = cc.conjugate_by_unitary(t, random_unitary(rng, t.dim_h))
            pkg2, _ = build(t2, k)
            assert fd_report(pkg2, k).fd_eval == base

    def test_pure_nilpotent_fd_equals_defect_rank(self, rng):
        for _ in range(5):
            t = random_nilpotent_tuple(rng)
            k = cc.preset("drury-arveson", d=t.d, N=12)
            res = run_curvature(t, k, RunSettings(n_samples=100, n_max=8))
            assert res.fd.fd_eval == res.pkg.rank_delta
            assert res.report.k_pure == 0


def _kernel(name, d, n=10):
    if name == "custom":
        # log-convex a_n, so every b_n >= 0
        return cc.from_coefficients([1.0 / (j + 1) ** 2 for j in range(n + 1)], d=d)
    return cc.preset(name, d=d, N=n)


_NILPOTENT = {1: ("jordan", 1, None), 2: ("shift", 2, 3), 3: ("shift", 3, 2)}


def _commuting_diagonalisable(rng, d, dim):
    """Not nilpotent: T_i = U diag(lambda_i) U*, sum of squared norms 0.6."""
    u = random_unitary(rng, dim)
    lam = rng.standard_normal((d, dim)) + 1j * rng.standard_normal((d, dim))
    lam *= np.sqrt(0.6 / np.sum(np.max(np.abs(lam), axis=1) ** 2))
    return cc.load_tuple([u @ np.diag(row) @ u.conj().T for row in lam])


_GRADING_CASES = [
    (kind, d, name)
    for kind in ("nilpotent", "not-nilpotent")
    for d in (1, 2, 3)
    for name in (("szego",) if d == 1 else ()) + ("drury-arveson", "dirichlet", "custom")
]

# (d, top degree, n_max, kernel) of the graded-fd benchmark requests: fd on
# the 0.4-scaled shift on polynomials of degree < top in d variables
_BENCHMARK_SHAPES = [
    (2, 2, 12, "drury-arveson"), (2, 2, 12, "dirichlet"),
    (2, 3, 12, "drury-arveson"), (2, 3, 12, "dirichlet"),
    (2, 4, 10, "drury-arveson"), (2, 4, 8, "dirichlet"),
    (3, 2, 8, "drury-arveson"), (3, 2, 8, "dirichlet"),
    (3, 3, 5, "drury-arveson"), (3, 3, 5, "dirichlet"),
]


def _direct_sum(first, second):
    return [
        np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])
        for a, b in zip(first, second)
    ]


_NONNIL_D1 = [np.array([[0.5, 0.2, 0.0], [0.0, 0.3j, 0.1], [0.0, 0.0, -0.2]])]

# fixed tuples graded against the per-degree multipliers: the recorded CLI
# inputs, non-pure tuples (a joint eigenvalue on the sphere) and
# nilpotent + non-nilpotent direct sums
_FIXED_TUPLES = {
    "jordan-4": [jordan_block(4)],
    "nonnil-d1": _NONNIL_D1,
    "diag-1-0": [np.diag([1.0, 0.0]).astype(complex)],
    "jordan-3x0.5+nonnil-d1": _direct_sum([0.5 * jordan_block(3)], _NONNIL_D1),
    "shift-d2-top3x0.4": [0.4 * m for m in truncated_shift_ops(2, 3)],
    "sphere-point-d2": [np.diag([0.6, 0.0]).astype(complex), np.diag([0.8, 0.3]).astype(complex)],
    "shift-d2-top2x0.4+diag": _direct_sum(
        [0.4 * m for m in truncated_shift_ops(2, 2)],
        [np.diag([0.3, 0.1j]), np.diag([-0.2, 0.4])],
    ),
}

_FIXED_CASES = [
    (name, kernel)
    for name, ops in _FIXED_TUPLES.items()
    for kernel in (("szego",) if len(ops) == 1 else ("drury-arveson",)) + ("dirichlet", "custom")
]

# unitary tuples: Delta = 0, so Ran M_theta = 0.  The d = 2 pair is a
# spherical unitary, T_1 T_1* + T_2 T_2* = I
_UNITARY = {
    "one": ([np.eye(1)], "szego"),
    "swap": ([np.array([[0.0, 1.0], [1.0, 0.0]])], "szego"),
    "sphere": ([np.diag([1.0, 0.0]), np.diag([0.0, 1j])], "drury-arveson"),
}


class TestGradedRoute:
    @pytest.mark.parametrize("kind,d,name", _GRADING_CASES)
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(0, 6))
    def test_leading_blocks_match_per_degree_multipliers(self, kind, d, name, seed, n_max):
        # M_n reads only the coefficients of degree <= n, so a series cut
        # at n_theta >= n_max grades a non-nilpotent tuple exactly
        rng = np.random.default_rng(seed)
        k = _kernel(name, d)
        n_max = min(n_max, 7 - d)
        if kind == "nilpotent":
            t = random_nilpotent_tuple(rng, _NILPOTENT[d])
            pkg, series = build(t, k)
        else:
            t = _commuting_diagonalisable(rng, d, int(rng.integers(2, 5)))
            pkg, series = build(t, k, n_op=max(n_max, 1), n_theta=max(n_max, 1))
        assert series.rank_delta > 0 and series.rank_d > 0
        assert np.array_equal(
            fd_by_grading(pkg, k, n_max), fd_by_grading_reference(series, k, n_max)
        )

    @pytest.mark.parametrize("d,top,n_max,name", _BENCHMARK_SHAPES)
    def test_benchmark_shapes_match_per_degree_multipliers(self, d, top, n_max, name):
        k = cc.preset(name, d=d, N=14)
        ops = truncated_shift_ops(d, top)
        u = random_unitary(np.random.default_rng(2024), len(ops[0]))
        t = cc.load_tuple([0.4 * u @ m @ u.conj().T for m in ops])
        pkg, series = build(t, k)
        assert np.array_equal(
            fd_by_grading(pkg, k, n_max), fd_by_grading_reference(series, k, n_max)
        )

    @pytest.mark.parametrize("name,kernel", _FIXED_CASES)
    def test_fixed_tuples_match_per_degree_multipliers(self, name, kernel):
        t = cc.load_tuple(_FIXED_TUPLES[name])
        k = _kernel(kernel, t.d, n=14)
        n_max = {1: 8, 2: 5}[t.d]
        # a series cut at n_max grades a non-nilpotent tuple exactly
        n_cut = None if t.nilpotent_degree else n_max
        pkg, series = build(t, k, n_op=n_cut, n_theta=n_cut)
        assert np.array_equal(
            fd_by_grading(pkg, k, n_max), fd_by_grading_reference(series, k, n_max)
        )

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(0, 8), cut=st.integers(0, 8))
    def test_shorter_sweep_is_a_prefix(self, seed, n_max, cut):
        # h(n) reads sigma^l(I) for l <= n + n_op only: stopping early
        # changes no earlier degree
        rng = np.random.default_rng(seed)
        t = random_commuting_tuple(rng, int(rng.integers(1, 3)), int(rng.integers(2, 5)))
        k = cc.preset("drury-arveson", d=t.d, N=10)
        pkg = cc.defect_package(t, k, n_op=3)
        cut = min(cut, n_max)
        assert np.array_equal(
            fd_by_grading(pkg, k, cut), fd_by_grading(pkg, k, n_max)[: cut + 1]
        )

    def test_rejects_negative_degree(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        with pytest.raises(ValueError):
            fd_by_grading(cc.defect_package(t, k), k, -1)

    def test_rejects_degree_past_the_horizon(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        with pytest.raises(HorizonExceeded):
            fd_by_grading(cc.defect_package(t, k), k, 11)

    def test_jordan_sequence(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=14)
        pkg = cc.defect_package(t, k)
        seq = fd_by_grading(pkg, k, 12)
        expected = [max(0, n - 2) / (n + 1) for n in range(13)]
        assert np.allclose(seq, expected)

    def test_zero_tuple_codimension_one(self):
        t = cc.load_tuple([np.zeros((1, 1))])
        k = cc.preset("drury-arveson", d=1, N=12)
        pkg = cc.defect_package(t, k, n_op=1)
        seq = fd_by_grading(pkg, k, 10)
        expected = [n / (n + 1) for n in range(11)]
        assert np.allclose(seq, expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_tuple_closed_form(self, d, dim):
        # Delta = I, nilpotent of degree 1: h(n) = dimH q_d(n) - dimH
        t = cc.load_tuple([np.zeros((dim, dim))] * d)
        k = cc.preset("drury-arveson", d=d, N=12)
        pkg = cc.defect_package(t, k, n_op=1)
        counts = np.array([q(d, n) for n in range(9)])
        assert np.allclose(fd_by_grading(pkg, k, 8), dim * (counts - 1) / counts)

    @pytest.mark.parametrize("name", sorted(_UNITARY))
    def test_zero_defect_rank_gives_zeros(self, name):
        ops, kernel = _UNITARY[name]
        t = cc.load_tuple(ops)
        k = cc.preset(kernel, d=t.d, N=8)
        pkg = cc.defect_package(t, k, n_op=1)
        assert pkg.rank_delta == 0
        assert np.array_equal(fd_by_grading(pkg, k, 6), np.zeros(7))

    def test_peak_memory_of_the_walk(self):
        # d = 3, dimH 10 to degree 12: the multiplier's triangular factor
        # would be 4550 x 4550 (331 MB); the walk holds dimH x dimH factors
        k = cc.preset("drury-arveson", d=3, N=14)
        t = cc.load_tuple([0.4 * m for m in truncated_shift_ops(3, 3)])
        pkg = cc.defect_package(t, k)
        tracemalloc.start()
        try:
            fd_by_grading(pkg, k, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_degenerate_constant_zero(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        # A_0 vanishes for this tuple, so the degree-0 quotient is 0
        assert fd_by_grading(pkg, k, 0)[0] == 0.0


class TestDirectSum:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           name=st.sampled_from(["szego", "drury-arveson", "dirichlet", "custom"]))
    def test_graded_dims_add(self, seed, d, name):
        # theta of T + S is theta_T + theta_S at a common horizon, so every
        # h(n) = dim P_n Ran M_theta adds exactly
        if name == "szego" and d > 1:
            name = "drury-arveson"
        rng = np.random.default_rng(seed)
        structures = {1: [("jordan", 1, None)], 2: [("shift", 2, 2), ("shift", 2, 3)],
                      3: [("shift", 3, 2)]}[d]
        pair = [random_nilpotent_tuple(rng, structures[rng.integers(len(structures))])
                for _ in range(2)]
        total = cc.load_tuple(_direct_sum(pair[0].ops, pair[1].ops))
        horizon = max(default_horizon(t) for t in pair)
        k = _kernel(name, d, n=12)
        n_max = {1: 8, 2: 5, 3: 4}[d]
        counts = np.array([q(d, n) for n in range(n_max + 1)])

        def h(t):
            pkg = cc.defect_package(t, k, n_op=horizon)
            return np.rint(fd_by_grading(pkg, k, n_max) * counts).astype(int)

        assert np.array_equal(h(total), h(pair[0]) + h(pair[1]))


class TestUnitaryInvariance:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["jordan", "nilpotent", "commuting"]),
           name=st.sampled_from(["szego", "drury-arveson", "dirichlet", "custom"]))
    def test_graded_dims_are_unitary_invariant(self, seed, kind, name):
        rng = np.random.default_rng(seed)
        if kind == "jordan":
            t = cc.load_tuple([jordan_block(int(rng.integers(2, 9)))])
        elif kind == "nilpotent":
            t = random_nilpotent_tuple(rng)
        else:
            t = random_commuting_tuple(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)))
        if name == "szego" and t.d > 1:
            name = "drury-arveson"
        k = _kernel(name, t.d, n=14)
        n_op = None if t.nilpotent_degree else 4
        n_max = {1: 10, 2: 6, 3: 5}[t.d]

        def graded(s):
            return fd_by_grading(cc.defect_package(s, k, n_op=n_op), k, n_max)

        base = graded(t)
        for _ in range(2):
            u = random_unitary(rng, t.dim_h)
            assert np.array_equal(graded(cc.conjugate_by_unitary(t, u)), base)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 8))
    def test_conjugated_jordan_closed_form(self, seed, size):
        # theta = z^size: P_n Ran M_theta is spanned by z^size..z^n.  The
        # Taylor coefficients below degree size - 1 of U J U* are rounding
        # noise, which a rank rule relative to each block would count
        u = random_unitary(np.random.default_rng(seed), size)
        t = cc.conjugate_by_unitary(cc.load_tuple([jordan_block(size)]), u)
        k = cc.preset("szego", d=1, N=16)
        expected = np.array([max(0, n - size + 1) / (n + 1) for n in range(13)])
        assert np.array_equal(fd_by_grading(cc.defect_package(t, k), k, 12), expected)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           name=st.sampled_from(["szego", "drury-arveson", "dirichlet", "custom"]))
    def test_nilpotent_hilbert_polynomial(self, seed, name):
        # h is non-decreasing and from n = nd - 1 on equals r q_d(n) - dimH,
        # the codimension dimH of the quotient module being constant
        t = random_nilpotent_tuple(np.random.default_rng(seed))
        if name == "szego" and t.d > 1:
            name = "drury-arveson"
        k = _kernel(name, t.d, n=14)
        pkg = cc.defect_package(t, k)
        n_max = {1: 10, 2: 6, 3: 5}[t.d]
        counts = np.array([q(t.d, n) for n in range(n_max + 1)])
        h = np.rint(fd_by_grading(pkg, k, n_max) * counts).astype(int)
        nd = t.nilpotent_degree
        assert np.all(np.diff(h) >= 0)
        assert np.array_equal(h[nd - 1 :], pkg.rank_delta * counts[nd - 1 :] - t.dim_h)
