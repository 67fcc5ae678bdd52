"""Characteristic function: evaluation, Taylor extraction, consistency."""
import warnings

import numpy as np
import pytest

import cnpcurv as cc
from cnpcurv.charfn import check_consistency, sample_ball_points
from cnpcurv.errors import HorizonExceeded, NearSingular, OutsideBall

from conftest import jordan_block, random_nilpotent_tuple, random_unitary


def zero_tuple(m: int, d: int) -> cc.OperatorTuple:
    return cc.load_tuple([np.zeros((m, m)) for _ in range(d)])


class TestEvalTheta:
    def test_zero_tuple_da_d2(self):
        t = zero_tuple(1, 2)
        k = cc.preset("drury-arveson", d=2, N=6)
        pkg = cc.defect_package(t, k, n_op=1)
        pe = cc.eval_theta(pkg, k, [0.3, 0.4])
        assert pe.theta.shape == (1, 2)
        assert np.allclose(sorted(np.abs(pe.theta).ravel()), [0.3, 0.4])
        assert pe.norm == pytest.approx(0.5)

    def test_jordan3_is_cubed_coordinate(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        pe = cc.eval_theta(pkg, k, [0.5])
        assert pe.theta.shape == (1, 1)
        assert abs(pe.theta[0, 0]) == pytest.approx(0.125, abs=1e-14)

    def test_at_origin_constant_term(self):
        t = cc.load_tuple([np.array([[0.5]])])
        k = cc.preset("szego", d=1, N=20)
        pkg = cc.defect_package(t, k, n_op=10)
        pe = cc.eval_theta(pkg, k, [0.0])
        expected = -pkg.w.conj().T @ pkg.t_tilde @ pkg.v
        assert np.allclose(pe.theta, expected)

    def test_outside_ball(self):
        t = zero_tuple(1, 1)
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(t, k, n_op=1)
        with pytest.raises(OutsideBall):
            cc.eval_theta(pkg, k, [1.0])
        with pytest.raises(OutsideBall) as exc:
            cc.eval_theta(pkg, k, [1e150])
        assert "1e+150" in str(exc.value) and len(str(exc.value)) < 200

    def test_outside_ball_huge_coordinate_does_not_overflow(self):
        t = zero_tuple(1, 1)
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(t, k, n_op=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutsideBall, match=r"1e\+200"):
                cc.eval_theta(pkg, k, [1e200])

    def test_near_singular(self):
        t = cc.load_tuple([np.diag([1.0, 0.0])])
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(t, k, n_op=3)
        with pytest.raises(NearSingular):
            cc.eval_theta(pkg, k, [1.0 - 1e-13])

    def test_contractive_on_random_points(self):
        cases = []
        t1 = cc.load_tuple([jordan_block(3)])
        cases.append((t1, cc.preset("szego", d=1, N=12), None))
        t2 = cc.load_tuple([np.array([[0.5]])])
        cases.append((t2, cc.preset("szego", d=1, N=40), 30))
        for t, k, n_op in cases:
            pkg = cc.defect_package(t, k, n_op=n_op)
            for z in sample_ball_points(k.d, 500, 0.99, seed=3):
                pe = cc.eval_theta(pkg, k, z)
                assert pe.norm <= 1.0 + 1e-10


class TestTaylor:
    def test_zero_tuple_coefficients(self):
        m, d = 2, 2
        t = zero_tuple(m, d)
        k = cc.preset("dirichlet", d=d, N=8)
        pkg = cc.defect_package(t, k, n_op=4)
        series = cc.taylor(pkg, k, n_theta=4)
        for n in range(1, 5):
            from cnpcurv.comb import enumerate_degree

            for alpha in enumerate_degree(d, n):
                tr = series.coeff_gram_trace(alpha)
                assert tr == pytest.approx(k.b_of(alpha) * m, rel=1e-12)

    def test_jordan_polynomial(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        series = cc.taylor(pkg, k)
        assert series.is_polynomial and series.degree == 3
        nonzero = {key for key, a in series.coeffs.items() if np.abs(a).max() > 1e-12}
        assert nonzero == {(3,)}
        assert series.coeff_gram_trace((3,)) == pytest.approx(1.0, abs=1e-12)

    def test_horizon_zero_keeps_constant_term(self):
        t = cc.load_tuple([np.array([[0.5]])])
        k = cc.preset("szego", d=1, N=20)
        pkg = cc.defect_package(t, k, n_op=10)
        series = cc.taylor(pkg, k, n_theta=0)
        assert set(series.coeffs) == {(0,)}
        assert series.coeffs[(0,)][0, 0] == pytest.approx(-0.5)

    def test_moebius_coefficients(self):
        # theta of the scalar contraction 1/2: (z - 1/2) / (1 - z/2)
        t = cc.load_tuple([np.array([[0.5]])])
        k = cc.preset("szego", d=1, N=40)
        pkg = cc.defect_package(t, k, n_op=30)
        series = cc.taylor(pkg, k, n_theta=10)
        assert series.coeffs[(0,)][0, 0] == pytest.approx(-0.5, abs=1e-13)
        for n in range(1, 11):
            assert abs(series.coeffs[(n,)][0, 0]) == pytest.approx(
                0.75 * 0.5 ** (n - 1), rel=1e-12
            )

    def test_horizon_exceeded_for_thick_kernel(self):
        t = zero_tuple(1, 1)
        k = cc.preset("dirichlet", d=1, N=20)
        pkg = cc.defect_package(t, k, n_op=3)
        with pytest.raises(HorizonExceeded):
            cc.taylor(pkg, k, n_theta=5)

    def test_finite_support_kernel_goes_past_n_op(self):
        t = cc.load_tuple([jordan_block(4)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)  # n_op = 3
        series = cc.taylor(pkg, k, n_theta=6)
        assert series.degree == 4

    def test_unitary_invariance_of_gram_traces(self, rng):
        t = random_nilpotent_tuple(rng)
        k = cc.preset("drury-arveson", d=t.d, N=12)
        pkg = cc.defect_package(t, k)
        series = cc.taylor(pkg, k)
        u = random_unitary(rng, t.dim_h)
        t2 = cc.conjugate_by_unitary(t, u)
        pkg2 = cc.defect_package(t2, k)
        series2 = cc.taylor(pkg2, k)
        keys = set(series.coeffs) | set(series2.coeffs)
        for key in keys:
            assert series.coeff_gram_trace(key) == pytest.approx(
                series2.coeff_gram_trace(key), abs=1e-10
            )


class TestConsistency:
    def test_polynomial_case_terminates(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        series = cc.taylor(pkg, k)
        chk = check_consistency(series, pkg, k)
        assert chk.max_residual <= 1e-10
        assert chk.ok

    def test_nonterminating_within_tail_bound(self):
        t = cc.load_tuple([np.array([[0.5]])])
        k = cc.preset("szego", d=1, N=40)
        pkg = cc.defect_package(t, k, n_op=30)
        series = cc.taylor(pkg, k, n_theta=12)
        chk = check_consistency(series, pkg, k, r_check=0.5)
        assert chk.ok

    def test_zero_series_at_origin(self):
        t = zero_tuple(1, 1)
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(t, k, n_op=1)
        series = cc.taylor(pkg, k, n_theta=0)
        assert np.allclose(series.evaluate(np.zeros(1)), series.coeffs[(0,)])


class TestConsistencyZeroTupleSlowKernel:
    def test_zero_tuple_dirichlet_tail(self):
        # non-terminating series of the zero tuple: the residual is the
        # explicit tail of Z and sits far below the analytic bound
        t = zero_tuple(1, 1)
        k = cc.preset("dirichlet", d=1, N=20)
        pkg = cc.defect_package(t, k, n_op=12)
        series = cc.taylor(pkg, k, n_theta=4)
        chk = check_consistency(series, pkg, k, r_check=0.5)
        explicit_tail = sum(
            np.sqrt(k.b[n]) * 0.5**n for n in range(5, 13)
        )
        assert chk.max_residual <= explicit_tail + 1e-12
        assert chk.ok


class TestNonNilpotentCommutingPair:
    def test_diagonal_pair_series_matches_evaluation(self):
        # commuting, non-nilpotent, d = 2: finite b-support makes every
        # horizon exact, so series and evaluation must agree to rounding
        t = cc.load_tuple([np.diag([0.4, 0.2]), np.diag([0.1, 0.3])])
        k = cc.preset("drury-arveson", d=2, N=20)
        pkg = cc.defect_package(t, k, n_op=14)
        series = cc.taylor(pkg, k, n_theta=14)
        chk = check_consistency(series, pkg, k, r_check=0.4, n_samples=15)
        assert chk.ok
        for z in sample_ball_points(2, 50, 0.95, seed=12):
            pe = cc.eval_theta(pkg, k, z)
            assert pe.norm <= 1.0 + 1e-10
