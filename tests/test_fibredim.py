"""Fibre dimension estimators and the inner-multiplier consistency check."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv import fibredim
from cnpcurv.charfn import CharacteristicSeries
from cnpcurv.comb import enumerate_up_to_degree, q
from cnpcurv.curvature import DegreeProfile, ordering_rows
from cnpcurv.errors import NotPure, SizeLimitExceeded
from cnpcurv.config import DEFAULT
from cnpcurv.fibredim import (
    MAX_FACTOR_BYTES,
    _fold,
    _graded_factor,
    _leading_ranks,
    _numerical_ranks,
    fd_by_grading,
    fd_report,
    innermult_consistency,
)
from cnpcurv.pipeline import RunSettings, run_curvature
from cnpcurv.traces import multiplier_matrix
from cnpcurv.tuples import default_horizon

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
        is_polynomial=True, degree=degree, kernel_fingerprint=k.fingerprint(), tol=DEFAULT,
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


def _degree_slices(d, r, n_max):
    """The rows (or columns) of each degree 0..n_max of the target space."""
    return [slice((q(d, n - 1) if n else 0) * r, q(d, n) * r) for n in range(n_max + 1)]


class TestGradedFactor:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
           regime=st.sampled_from(["band", "whole", "tall"]), panel=st.sampled_from([4, 32]))
    def test_factor_of_the_multiplier_gram(self, seed, d, regime, panel):
        # band: theta's degree g below n_max; whole: g >= n_max, so the
        # window is all of R from degree 0 on; tall: rank_d so large that
        # a degree's rows outnumber the window's columns.  Panels of 4
        # columns send every window wider than 16 to the structured fold
        rng = np.random.default_rng(seed)
        names = ("szego",) * (d == 1) + ("drury-arveson", "dirichlet", "custom")
        k = _kernel(names[rng.integers(len(names))], d)
        degree = int(rng.integers(0 if regime == "band" else 1, 4 - d // 2))
        if regime == "whole":
            n_max = int(rng.integers(0, degree + 1))
        else:
            n_max = degree + int(rng.integers(1, 8 - d))
        r_tgt = int(rng.integers(1, 4))
        r_src = int(rng.integers(8, 13)) if regime == "tall" else int(rng.integers(1, 5))
        while q(d, n_max) * max(r_tgt, r_src) > 240:
            n_max -= 1
        coeffs = _random_coeffs(rng, k, r_tgt, r_src, degree)
        series = _series(k, coeffs)
        band = min(max(sum(key) for key, a in coeffs.items() if np.any(a)), n_max)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fibredim, "_PANEL", panel)
            r = _graded_factor(series, k, n_max)
            graded = fd_by_grading(series, k, n_max)
        assert not np.any(np.tril(r, -1))
        degrees = _degree_slices(d, r_tgt, n_max)
        for t, rows in enumerate(degrees):
            assert not np.any(r[rows, degrees[min(t + band, n_max)].stop :])
        m = multiplier_matrix(k, coeffs, n_max, n_max)
        gram = m @ m.conj().T
        assert np.linalg.norm(r.conj().T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
        assert np.array_equal(graded, fd_by_grading_reference(series, k, n_max))

    @pytest.mark.parametrize("n,height", [(70, 20), (150, 40), (150, 200)])
    def test_fold_keeps_zero_rows(self, n, height):
        # rows 3 and 40 of t are zero, as for degrees entering the window;
        # column 3 is zero throughout, so row 3 must stay exactly zero,
        # while row 40 takes what the rows bring to column 40.  Column 5 is
        # zero but for a real diagonal, so its reflector is the identity
        # and row 5 stays as it was.  A 70-column t takes one dense QR;
        # 150 columns take the structured fold over 5 panels, with fewer
        # and with more rows than columns
        rng = np.random.default_rng(n + height)
        t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        rows = rng.standard_normal((height, n)) + 1j * rng.standard_normal((height, n))
        t[[3, 40]] = 0
        t[:, 3] = rows[:, 3] = 0
        t[:, 5] = rows[:, 5] = 0
        t[5, 5] = 2.0
        row5 = t[5].copy()
        gram = t.conj().T @ t + rows.conj().T @ rows
        _fold(t, rows)
        assert not np.any(np.tril(t, -1))
        assert not np.any(t[3]) and t[40, 40] != 0
        assert np.array_equal(t[5], row5)
        assert np.linalg.norm(t.conj().T @ t - gram) <= 1e-12 * np.linalg.norm(gram)


# multiples of eps_rank sigma_1 planted as singular values or residuals: two
# on each side of the threshold, and the threshold itself, where rounding
# decides what an SVD counts
_PLANTS = (0.3, 0.7, 1.0, 1.5, 3.0)


def _planted_factor(rng, m, mode):
    """An m x m upper triangular factor with singular values, or dropped
    columns' residuals, at _PLANTS multiples of eps_rank sigma_1.

    spectrum: R of U diag(s) V*, with one to m//2 singular values of order
    one and a few planted ones.  columns: each column is a random one with
    an O(1) diagonal, a combination of the earlier columns plus a planted
    diagonal entry, or a random one with a zero diagonal, which may still be
    independent of the earlier ones ([[1, 1, 0], [0, 0, 1], [0, 0, 0]])."""
    eps = DEFAULT.eps_rank
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    plant = lambda: rng.choice(_PLANTS) * eps
    if mode == "spectrum":
        big = int(rng.integers(1, m // 2 + 2))
        s = np.zeros(m)
        s[:big] = np.sort(rng.uniform(0.05, 1.0, big))[::-1]
        s[0] = 1.0
        planted = rng.choice(np.arange(big, m), size=min(3, m - big), replace=False)
        s[planted] = [plant() for _ in planted]
        u, v = random_unitary(rng, m), random_unitary(rng, m)
        return np.linalg.qr((u * s) @ v, mode="r")
    r = np.zeros((m, m), dtype=complex)
    for j in range(m):
        kind = rng.choice(["free", "dependent", "hidden"], p=[0.5, 0.3, 0.2])
        if kind == "free" or j == 0:
            r[: j + 1, j] = cplx(j + 1)
        elif kind == "dependent":
            r[:j, j] = r[:j, :j] @ cplx(j)
            r[j, j] = plant() * np.max(np.abs(r[:j, :j]))
        else:
            r[:j, j] = cplx(j)
    return r


@pytest.fixture
def svd_calls(monkeypatch):
    """One entry per np.linalg.svd call from here on."""
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


# (d, top degree, n_max, kernel) of the graded-fd benchmark requests: fd on
# the 0.4-scaled shift on polynomials of degree < top in d variables
_BENCHMARK_SHAPES = [
    (2, 2, 12, "drury-arveson"), (2, 2, 12, "dirichlet"),
    (2, 3, 12, "drury-arveson"), (2, 3, 12, "dirichlet"),
    (2, 4, 10, "drury-arveson"), (2, 4, 8, "dirichlet"),
    (3, 2, 8, "drury-arveson"), (3, 2, 8, "dirichlet"),
    (3, 3, 5, "drury-arveson"), (3, 3, 5, "dirichlet"),
]


class TestLeadingRanks:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), r_tgt=st.integers(1, 3),
           n_max=st.integers(0, 7), mode=st.sampled_from(["spectrum", "columns"]))
    def test_matches_an_svd_of_every_leading_block(self, seed, d, r_tgt, n_max, mode):
        rng = np.random.default_rng(seed)
        while q(d, n_max) * r_tgt > 150:
            n_max -= 1
        sizes = [q(d, n) * r_tgt for n in range(n_max + 1)]
        r = _planted_factor(rng, sizes[-1], mode)
        expected = [_numerical_ranks(r[None, :size, :size], DEFAULT.eps_rank)[0] for size in sizes]
        assert np.array_equal(_leading_ranks(r, sizes, DEFAULT.eps_rank), expected)

    def test_hidden_rank_takes_the_svd(self, svd_calls):
        # the last two diagonal entries vanish, yet the third column is
        # independent of the first two: the bounds decide the first two
        # blocks, and the candidate rank 1 of the whole is not returned
        r = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        assert list(_leading_ranks(r, [1, 2, 3], DEFAULT.eps_rank)) == [1, 1, 2]
        assert len(svd_calls) == 1

    @pytest.mark.parametrize("d,top,n_max,name", _BENCHMARK_SHAPES)
    def test_default_grading_takes_no_svd(self, svd_calls, d, top, n_max, name):
        # every degree of a 0.4-scaled shift, conjugated by a fixed unitary,
        # is decided by the bounds: an R whose unpivoted diagonal hides an
        # independent column would send a degree to the SVD
        k = cc.preset(name, d=d, N=14)
        ops = truncated_shift_ops(d, top)
        u = random_unitary(np.random.default_rng(2024), len(ops[0]))
        t = cc.load_tuple([0.4 * u @ m @ u.conj().T for m in ops])
        pkg, series = build(t, k)
        expected = fd_by_grading_reference(series, k, n_max)
        svd_calls.clear()
        assert np.array_equal(fd_by_grading(series, k, n_max), expected)
        assert svd_calls == []

    def test_peak_memory_with_the_inverse(self):
        # the largest d = 2 graded-fd request: R is 660 x 660, and the
        # certificate holds a copy of R[S, S] beside it
        k = cc.preset("drury-arveson", d=2, N=12)
        t = cc.load_tuple([0.4 * m for m in truncated_shift_ops(2, 4)])
        pkg, series = build(t, k)
        m = q(2, 10) * series.rank_delta
        assert m == 660
        tracemalloc.start()
        try:
            fd_by_grading(series, k, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 16 * m * m


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
        total = cc.load_tuple([
            np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])
            for a, b in zip(pair[0].ops, pair[1].ops)
        ])
        horizon = max(default_horizon(t) for t in pair)
        k = _kernel(name, d, n=12)
        n_max = {1: 8, 2: 5, 3: 4}[d]
        counts = np.array([q(d, n) for n in range(n_max + 1)])

        def h(t):
            _, series = build(t, k, n_op=horizon, n_theta=horizon)
            return np.rint(fd_by_grading(series, k, n_max) * counts).astype(int)

        assert np.array_equal(h(total), h(pair[0]) + h(pair[1]))


class TestInnermult:
    def test_jordan_chain(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=16)
        pkg, series = build(t, k)
        rep = fd_report(pkg, k, purity_residual=0.0)
        profile = DegreeProfile.build(t, pkg, k, 12)
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
