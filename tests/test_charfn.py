"""Characteristic function: evaluation, Taylor extraction, consistency, and
the termination bound the curvature report reads in place of the series."""
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.charfn import check_consistency, sample_ball_points, termination_bound
from cnpcurv.errors import HorizonExceeded, NearSingular, OutsideBall

from conftest import jordan_block, random_nilpotent_tuple, random_unitary, truncated_shift_ops
from oracles import coeff_gram_trace


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
        for bad in (np.nan, complex(0.0, np.nan), -np.inf):
            with pytest.raises(OutsideBall, match="is not finite"):
                cc.eval_theta(pkg, k, [bad])

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
                tr = coeff_gram_trace(series, alpha)
                assert tr == pytest.approx(k.b_of(alpha) * m, rel=1e-12)

    def test_jordan_polynomial(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        series = cc.taylor(pkg, k)
        assert series.is_polynomial and series.degree == 3
        nonzero = {key for key, a in series.coeffs.items() if np.abs(a).max() > 1e-12}
        assert nonzero == {(3,)}
        assert coeff_gram_trace(series, (3,)) == pytest.approx(1.0, abs=1e-12)

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
        pkg = cc.defect_package(t, k)
        assert pkg.n_op == 3  # the nilpotency default: the preset's b-support is 1
        series = cc.taylor(pkg, k, n_theta=6)
        assert series.degree == 4

    def test_polynomial_state_takes_one_norm_per_coefficient(self, monkeypatch):
        import cnpcurv.charfn as charfn

        k = cc.preset("drury-arveson", d=2, N=10)
        t = cc.load_tuple([0.4 * m for m in truncated_shift_ops(2, 3)])
        pkg = cc.defect_package(t, k)
        norms = []
        real = charfn.op_norm
        monkeypatch.setattr(charfn, "op_norm", lambda a: norms.append(a) or real(a))
        series = cc.taylor(pkg, k)
        assert len(norms) == len(series.coeffs)
        assert series.is_polynomial and series.degree == 3

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
            assert coeff_gram_trace(series, key) == pytest.approx(
                coeff_gram_trace(series2, key), abs=1e-10
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


class TestFiniteSupportDefaultHorizon:
    """b = (1/2, 1/2, 0, ...): the default package horizon reaches the
    b-support, so the default Taylor horizon nd - 1 + 2 needs no block the
    package lacks."""

    @staticmethod
    def kernel() -> cc.KernelSpec:
        a = [1, Fraction(1, 2), Fraction(3, 4), Fraction(5, 8), Fraction(11, 16)]
        return cc.from_coefficients(a, d=1, b_support_bound=2)

    def test_zero_tuple_taylor(self):
        k = self.kernel()
        pkg = cc.defect_package(zero_tuple(1, 1), k)
        assert pkg.n_op == 2
        series = cc.taylor(pkg, k)
        # theta(z) = [sqrt(b_1) z, sqrt(b_2) z^2] up to the basis V
        assert series.is_polynomial and series.degree == 2
        for n in (1, 2):
            assert np.linalg.norm(series.coeffs[(n,)]) ** 2 == pytest.approx(0.5, abs=1e-14)

    def test_jordan2_run_matches_explicit_horizons(self):
        k, t = self.kernel(), cc.load_tuple([jordan_block(2)])
        reports = [
            cc.run_curvature(t, k, cc.RunSettings(n_op=n_op, n_max=4)).report
            for n_op in (None, 2, 3)
        ]
        for r in reports:
            assert (r.k_series, r.k_pure, r.fd_eval) == (0.0, 0, 2)


class TestTerminationBound:
    """The curvature report takes is_polynomial and theta_degree_bound from
    termination_bound, not from the Taylor series; the series' own state
    must agree, and its degree never exceeds the bound."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["szego", "drury-arveson", "dirichlet"]))
    def test_report_state_matches_the_series(self, seed, name):
        t = random_nilpotent_tuple(np.random.default_rng(seed))
        assume(t.d == 1 or name != "szego")
        k = cc.preset(name, d=t.d, N=14)
        run = cc.PipelineResult(t, k, cc.RunSettings(n_samples=60, n_max=6))
        series = cc.taylor(run.pkg, k, run.n_theta)
        assert series.n_theta == run.n_theta
        if k.b_support_bound is None:
            # over dirichlet the report of a nilpotent tuple raises
            # ReconcileFailure at default horizons (ROADMAP item 2): compare
            # the helper the report reads
            bound = termination_bound(run.pkg, k, run.n_theta)
            is_polynomial = bound is not None
        else:
            bound, is_polynomial = run.report.theta_degree_bound, run.report.is_polynomial
        assert is_polynomial == series.is_polynomial
        assert is_polynomial == (k.b_support_bound is not None)
        if is_polynomial:
            assert bound >= series.degree

    @pytest.mark.parametrize(
        "ops,name",
        [([jordan_block(n)], name) for n in range(2, 7) for name in ("szego", "drury-arveson")]
        + [([0.4 * m for m in truncated_shift_ops(d, top)], "drury-arveson")
           for d, top in ((2, 3), (2, 4), (3, 3))],
        ids=[f"J{n}-{name}" for n in range(2, 7) for name in ("szego", "drury-arveson")]
        + ["shift-d2-top3", "shift-d2-top4", "shift-d3-top3"],
    )
    def test_bound_is_the_degree(self, ops, name):
        t = cc.load_tuple(ops)
        k = cc.preset(name, d=t.d, N=16)
        run = cc.run_curvature(t, k, cc.RunSettings(n_samples=100, n_max=8))
        series = cc.taylor(run.pkg, k, run.n_theta)
        assert run.report.is_polynomial and series.is_polynomial
        # nd - 1 + b-support, and both kernels have b-support 1
        assert run.report.theta_degree_bound == series.degree == t.nilpotent_degree

    def test_tiny_top_coefficient_falls_below_the_bound(self):
        # 1e-3 J_5: theta's degree-5 coefficient (about 1e-12) lies below the
        # eps_id cut, so the series reports degree 4 against the bound 5
        t = cc.load_tuple([1e-3 * jordan_block(5)])
        k = cc.preset("szego", d=1, N=16)
        run = cc.run_curvature(t, k, cc.RunSettings(n_samples=100, n_max=8))
        series = cc.taylor(run.pkg, k, run.n_theta)
        assert (series.degree, run.report.theta_degree_bound) == (4, 5)

    def test_none_short_of_the_bound(self):
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(cc.load_tuple([jordan_block(3)]), k)
        assert termination_bound(pkg, k, 3) == 3
        assert termination_bound(pkg, k, 2) is None
        assert not cc.taylor(pkg, k, 2).is_polynomial
