"""Fibre dimension estimators and the inner-multiplier consistency check."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.charfn import CharacteristicSeries
from cnpcurv.comb import enumerate_up_to_degree, q
from cnpcurv.curvature import DegreeProfile, ordering_rows
from cnpcurv.errors import NotPure, SizeLimitExceeded
from cnpcurv.fibredim import MAX_FACTOR_BYTES, fd_by_grading, fd_report, innermult_consistency
from cnpcurv.pipeline import RunSettings, run_curvature

from conftest import (
    jordan_block,
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


def _series(k, coeffs):
    """A characteristic series with the given coefficients A_gamma:
    fd_by_grading reads nothing else of a series."""
    rank_delta, rank_d = next(iter(coeffs.values())).shape
    degree = max(sum(key) for key in coeffs)
    return CharacteristicSeries(
        coeffs=coeffs, n_theta=degree, d=k.d, rank_delta=rank_delta, rank_d=rank_d,
        is_polynomial=True, degree=degree, kernel_fingerprint=k.fingerprint(),
    )


def _random_coeffs(rng, k, rank_delta, rank_d, degree):
    """Random A_gamma for |gamma| <= degree, some of them zero, A_0 of rank one."""
    coeffs = {}
    for gamma in enumerate_up_to_degree(k.d, degree):
        a = rng.standard_normal((rank_delta, rank_d)) + 1j * rng.standard_normal((rank_delta, rank_d))
        if gamma.degree == 0:
            a = np.outer(a[:, 0], a[0])
        elif rng.random() < 0.2:
            a = np.zeros_like(a)
        coeffs[gamma.entries] = a
    return coeffs


_GRADING_CASES = [
    (kind, d, name)
    for kind in ("nilpotent", "not-nilpotent", "rank_d<rank_delta", "rank_d>rank_delta")
    for d in (1, 2, 3)
    for name in (("szego",) if d == 1 else ()) + ("drury-arveson", "dirichlet", "custom")
]


class TestGradedRoute:
    @pytest.mark.parametrize("kind,d,name", _GRADING_CASES)
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n_max=st.integers(0, 6))
    def test_leading_blocks_match_per_degree_multipliers(self, kind, d, name, seed, n_max):
        rng = np.random.default_rng(seed)
        k = _kernel(name, d)
        n_max = min(n_max, 7 - d)
        if kind == "nilpotent":
            pkg, series = build(random_nilpotent_tuple(rng, _NILPOTENT[d]), k)
        elif kind == "not-nilpotent":
            pkg, series = build(_commuting_diagonalisable(rng, d, int(rng.integers(2, 5))), k,
                                n_op=4 - d, n_theta=4 - d)
        else:
            small, large = sorted(rng.choice(np.arange(1, 6), size=2, replace=False))
            ranks = (large, small) if kind == "rank_d<rank_delta" else (small, large)
            series = _series(k, _random_coeffs(rng, k, *ranks, degree=int(rng.integers(0, 3))))
        assert series.rank_delta > 0 and series.rank_d > 0
        assert np.array_equal(
            fd_by_grading(series, k, n_max), fd_by_grading_reference(series, k, n_max)
        )

    def test_jordan_sequence(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=14)
        pkg, series = build(t, k)
        seq = fd_by_grading(series, k, 12)
        expected = [max(0, n - 2) / (n + 1) for n in range(13)]
        assert np.allclose(seq, expected)

    def test_zero_tuple_codimension_one(self):
        t = cc.load_tuple([np.zeros((1, 1))])
        k = cc.preset("drury-arveson", d=1, N=12)
        pkg, series = build(t, k, n_op=1, n_theta=1)
        seq = fd_by_grading(series, k, 10)
        expected = [n / (n + 1) for n in range(11)]
        assert np.allclose(seq, expected)

    @pytest.mark.parametrize("rank_delta,rank_d", [(0, 3), (3, 0), (0, 0)])
    def test_zero_defect_rank_gives_zeros(self, rank_delta, rank_d):
        k = cc.preset("drury-arveson", d=2, N=6)
        series = _series(k, {(0, 0): np.zeros((rank_delta, rank_d), dtype=complex)})
        assert np.array_equal(fd_by_grading(series, k, 6), np.zeros(7))

    def test_size_limit_refused_before_allocating(self):
        # d = 3, rank_delta 10, n_max 12: R would be 4550 x 4550 (331 MB)
        k = cc.preset("drury-arveson", d=3, N=12)
        series = _series(k, {(0, 0, 0): np.ones((10, 30), dtype=complex)})
        assert 16 * (q(3, 8) * 10) ** 2 <= MAX_FACTOR_BYTES < 16 * (q(3, 12) * 10) ** 2
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match="4550 x 4550"):
                fd_by_grading(series, k, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_is_a_few_triangular_factors(self):
        # the largest graded-fd benchmark request: R is 560 x 560 (5 MB), the
        # dense multiplier at n_max is 560 x 5040 (45 MB)
        k = cc.preset("dirichlet", d=3, N=12)
        t = cc.load_tuple([0.4 * m for m in truncated_shift_ops(3, 3)])
        pkg, series = build(t, k)
        m = q(3, 5) * series.rank_delta
        assert (m, series.rank_d) == (560, 90)
        tracemalloc.start()
        try:
            fd_by_grading(series, k, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 16 * m * m

    def test_degenerate_constant_zero(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg, series = build(t, k)
        # A_0 vanishes for this tuple, so the degree-0 quotient is 0
        assert fd_by_grading(series, k, 0)[0] == 0.0


class TestInnermult:
    def test_jordan_chain(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=16)
        pkg, series = build(t, k)
        rep = fd_report(pkg, k, purity_residual=0.0)
        profile = DegreeProfile.build(series, k, 12)
        rows = ordering_rows(profile)
        verdict = innermult_consistency(
            rep,
            profile.series_value,
            [row["t_p_normalized"] for row in rows],
            purity_residual=0.0,
        )
        assert verdict.ok
        assert verdict.gap_series_vs_eval <= 1e-10
        assert verdict.trend_ok

    def test_not_pure_gate(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=16)
        pkg, series = build(t, k)
        rep = fd_report(pkg, k)
        with pytest.raises(NotPure):
            innermult_consistency(rep, 1.0, [1.0, 1.0], purity_residual=1.0)

    def test_dirichlet_truncation_gap_is_visible(self):
        # slow b-tails leave a genuine deficit at any finite horizon: the
        # series value sits below the evaluation rank by the b-mass residue
        t = cc.load_tuple([np.zeros((2, 2))])
        k = cc.preset("dirichlet", d=1, N=44)
        res = run_curvature(
            t, k, RunSettings(n_op=40, n_theta=40, n_max=10, n_samples=100)
        )
        verdict = res.innermult
        expected_gap = 2 * (1 - k.b_partial_sum(40))
        assert verdict is not None and not verdict.ok
        assert verdict.gap_series_vs_eval == pytest.approx(expected_gap, abs=1e-10)
        assert verdict.trend_ok

    def test_pure_nilpotent_fd_equals_defect_rank(self, rng):
        for _ in range(5):
            t = random_nilpotent_tuple(rng)
            k = cc.preset("drury-arveson", d=t.d, N=12)
            res = run_curvature(t, k, RunSettings(n_samples=100, n_max=8))
            assert res.fd.fd_eval == res.pkg.rank_delta
            assert res.report.k_pure == 0
