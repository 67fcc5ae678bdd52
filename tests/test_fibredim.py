"""Fibre dimension estimators and the inner-multiplier consistency check."""
import numpy as np
import pytest

import cnpcurv as cc
from cnpcurv.curvature import DegreeProfile, ordering_rows
from cnpcurv.errors import NotPure
from cnpcurv.fibredim import fd_by_grading, fd_report, innermult_consistency
from cnpcurv.pipeline import RunSettings, run_curvature

from conftest import jordan_block, random_nilpotent_tuple, random_unitary


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


class TestGradedRoute:
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
