"""Curvature estimators and their reconciliation."""
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.charfn import (
    CharacteristicSeries,
    _theta_map,
    sample_ball_points,
    termination_bound,
    theta_horizon,
)
from cnpcurv.config import DEFAULT
from cnpcurv.curvature import (
    DegreeProfile,
    IntegralEstimate,
    _sphere_rule,
    curvature_integral,
    curvature_pure,
    curvature_weighted,
    reconcile,
    theta_trace_E_normalized,
)
from cnpcurv.errors import IntegerMismatch, NotPure, ReconcileFailure
from cnpcurv.pipeline import RunSettings, run_curvature

from conftest import jordan_block, random_nilpotent_tuple, random_unitary
from oracles import profile_from_series


def build(t, k, n_op=None, n_theta=None):
    pkg = cc.defect_package(t, k, n_op=n_op)
    series = cc.taylor(pkg, k, n_theta=n_theta)
    return pkg, series


def synthetic_series(d, coeffs, rank_delta, rank_d, k, is_poly=True):
    degs = [sum(key) for key in coeffs]
    return CharacteristicSeries(
        coeffs={k2: np.asarray(v, dtype=complex) for k2, v in coeffs.items()},
        n_theta=max(degs),
        d=d,
        rank_delta=rank_delta,
        rank_d=rank_d,
        is_polynomial=is_poly,
        degree=max(degs) if is_poly else None,
        tol=DEFAULT,
    )


class TestDpsiSeries:
    def test_zero_tuple_partial_sums(self):
        m = 3
        t = cc.load_tuple([np.zeros((m, m))])
        k = cc.preset("dirichlet", d=1, N=40)
        pkg = cc.defect_package(t, k, n_op=30)
        assert DegreeProfile.build(pkg, k, n_theta=30).series_value == pytest.approx(
            m * k.b_partial_sum(30), abs=1e-12
        )

    def test_jordan_is_one(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        assert DegreeProfile.build(pkg, k).series_value == pytest.approx(1.0, abs=1e-12)

    def test_zero_series(self):
        k = cc.preset("szego", d=1, N=5)
        series = synthetic_series(1, {(0,): np.zeros((1, 1))}, 1, 1, k)
        assert profile_from_series(series, k).series_value == 0.0


class TestWeightedRoute:
    def test_jordan_vanishes_past_degree(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=14)
        pkg = cc.defect_package(t, k)
        kw = curvature_weighted(DegreeProfile.build(pkg, k, 12), pkg.rank_delta)
        assert np.allclose(kw[3:], 0.0, atol=1e-12)
        assert np.allclose(kw[:3], 1.0, atol=1e-12)

    def test_zero_tuple_da(self):
        t = cc.load_tuple([np.zeros((1, 1))])
        k = cc.preset("drury-arveson", d=1, N=10)
        pkg = cc.defect_package(t, k, n_op=1)
        kw = curvature_weighted(DegreeProfile.build(pkg, k, 8, n_theta=1), pkg.rank_delta)
        assert np.allclose(kw[1:], 0.0, atol=1e-12)

    def test_vanishing_symbol_keeps_dim(self):
        t = cc.load_tuple([jordan_block(2)])
        k = cc.preset("szego", d=1, N=8)
        pkg, _ = build(t, k)
        series = synthetic_series(1, {(0,): np.zeros((1, 1))}, 1, 1, k)
        kw = curvature_weighted(profile_from_series(series, k, 6), pkg.rank_delta)
        assert np.allclose(kw, pkg.rank_delta)

    def test_polynomial_fast_formula_constant_coefficients(self):
        # eventually-constant normalized E-traces equal the series value
        t = cc.load_tuple([jordan_block(4)])
        k = cc.preset("szego", d=1, N=14)
        pkg, series = build(t, k)
        profile = DegreeProfile.build(pkg, k, 12)
        for n in range(series.degree + 2, 13):
            assert theta_trace_E_normalized(profile, n) == pytest.approx(
                profile.series_value, abs=1e-10
            )

    def test_polynomial_ratio_trend_dirichlet(self):
        # slow-kernel analogue: E-trace quotients sit between the series
        # value and its worst a-ratio inflation, shrinking with n
        k = cc.preset("dirichlet", d=1, N=30)
        coeffs = {(2,): np.array([[0.5]], dtype=complex)}
        series = synthetic_series(1, coeffs, 1, 1, k)
        profile = profile_from_series(series, k, 27)
        value = profile.series_value
        for n in range(4, 28):
            te = theta_trace_E_normalized(profile, n)
            inflation = float(k.a[n - 2] / k.a[n])
            assert value - 1e-12 <= te <= value * inflation + 1e-12


class TestIntegralRoute:
    def test_jordan_closed_form(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg, series = build(t, k)
        est = curvature_integral(pkg, k, radius=0.999, n_samples=300, seed=5)
        assert est.estimate == pytest.approx(1 - 0.999**6, abs=1e-12)

    def test_zero_tuple_da_exact_every_sample(self):
        t = cc.load_tuple([np.zeros((1, 1))])
        k = cc.preset("drury-arveson", d=1, N=6)
        pkg, series = build(t, k, n_op=1, n_theta=1)
        for r in (0.5, 0.9):
            est = curvature_integral(pkg, k, radius=r, n_samples=100, seed=2)
            assert est.estimate == pytest.approx(1 - r**2, abs=1e-13)
            assert est.stderr <= 1e-15

    def test_matches_exact_average_from_series(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        r = 0.7
        est = curvature_integral(pkg, k, radius=r, n_samples=200, seed=9)
        assert pkg.rank_delta - est.estimate == pytest.approx(
            DegreeProfile.build(pkg, k).sphere_average(r), abs=1e-12
        )

    def test_sphere_average_is_constant_for_unitary_invariance(self):
        # d = 2: the integrand is literally constant over the sphere
        t = cc.load_tuple([np.zeros((2, 2)), np.zeros((2, 2))])
        k = cc.preset("drury-arveson", d=2, N=6)
        pkg, series = build(t, k, n_op=1, n_theta=1)
        est = curvature_integral(pkg, k, radius=0.8, n_samples=150, seed=1)
        assert est.stderr <= 1e-14
        assert est.estimate == pytest.approx(2 * (1 - 0.8**2), abs=1e-12)

    def test_deterministic_under_seed(self):
        t = cc.load_tuple([jordan_block(2)])
        k = cc.preset("szego", d=1, N=8)
        pkg, _ = build(t, k)
        a = curvature_integral(pkg, k, n_samples=64, seed=42)
        b = curvature_integral(pkg, k, n_samples=64, seed=42)
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_radius_validation(self):
        t = cc.load_tuple([jordan_block(2)])
        k = cc.preset("szego", d=1, N=8)
        pkg, _ = build(t, k)
        with pytest.raises(ValueError):
            curvature_integral(pkg, k, radius=1.0)


def monte_carlo_reference(pkg, k, radius, n_samples, seed):
    """The Monte-Carlo estimate, computed step by step as curvature_integral
    computed it before the product rule: equality with it is bit-identity."""
    points = sample_ball_points(k.d, n_samples, radius, seed)
    vals = pkg.rank_delta - _theta_map(
        pkg, k, points, lambda zc, theta: np.sum(np.abs(theta) ** 2, axis=(1, 2))
    )
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return IntegralEstimate(float(vals.mean()), stderr, radius, n_samples, seed)


def _certified(t, k):
    """(package, theta degree bound, profile) at the default horizons."""
    pkg = cc.defect_package(t, k)
    n_theta = theta_horizon(pkg, k)
    return pkg, termination_bound(pkg, k, n_theta), DegreeProfile.build(pkg, k, n_theta=n_theta)


# the conftest structures in d = 1 and 2, with the kernels valid there
_RULE_CASES = [(("jordan", 1, None), "szego"), (("jordan", 1, None), "drury-arveson"),
               (("shift", 2, 2), "drury-arveson"), (("shift", 2, 3), "drury-arveson")]


class TestSphereRule:
    """The product rule curvature_integral runs where theta is certified
    polynomial and d <= 2."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degree", range(7))
    def test_monomial_moments_exact(self, d, degree):
        # on the unit sphere the rule gives sum_j w_j z_j^gamma conj(z_j)^gamma'
        # = [gamma = gamma'] gamma! (d-1)! / (n + d - 1)!, n = |gamma|, that
        # is 1 / (q_{d-1}(n) binom(n, gamma)) (Rudin 1980, 1.4), for all
        # |gamma|, |gamma'| <= degree; the moments come from factorials here
        points, weights = _sphere_rule(d, degree, 1.0)
        gammas = [g for g in itertools.product(range(degree + 1), repeat=d) if sum(g) <= degree]
        mono = np.stack([np.prod(points ** np.array(g), axis=1) for g in gammas], axis=1)
        moments = (weights[:, None] * mono).T @ mono.conj()
        exact = np.diag([
            math.prod(map(math.factorial, g)) * math.factorial(d - 1) / math.factorial(sum(g) + d - 1)
            for g in gammas
        ])
        assert np.abs(moments - exact).max() <= 1e-14

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(_RULE_CASES), seed=st.integers(0, 2**32 - 1),
           radius=st.floats(0.05, 0.999))
    def test_matches_exact_sphere_average(self, case, seed, radius):
        structure, name = case
        t = random_nilpotent_tuple(np.random.default_rng(seed), structure=structure)
        k = cc.preset(name, d=t.d, N=16)
        pkg, bound, profile = _certified(t, k)
        est = curvature_integral(pkg, k, radius=radius, degree=bound)
        assert est.method == "product-rule" and est.stderr == 0.0
        assert abs(est.estimate - (pkg.rank_delta - profile.sphere_average(radius))) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_points_capped_by_samples(self, d):
        # the rules of degree D and D + 1 take (D + 1) + (D + 2) points at
        # d = 1 and (D + 1)^2 ceil((D + 1) / 2) + (D + 2)^2 ceil((D + 2) / 2)
        # at d = 2; one point fewer than both need falls back to Monte Carlo
        structure = ("jordan", 1, None) if d == 1 else ("shift", 2, 3)
        t = random_nilpotent_tuple(np.random.default_rng(4), structure=structure)
        k = cc.preset("drury-arveson", d=d, N=16)
        pkg, bound, _ = _certified(t, k)
        used = sum((n + 1) ** d * ((n + 2) // 2) ** (d - 1) for n in (bound, bound + 1))
        est = curvature_integral(pkg, k, n_samples=used, seed=3, degree=bound)
        assert est.method == "product-rule" and est.n_samples == used
        est = curvature_integral(pkg, k, n_samples=used - 1, seed=3, degree=bound)
        assert est == monte_carlo_reference(pkg, k, 0.999, used - 1, 3)

    @pytest.mark.parametrize("structure", [("jordan", 1, None), ("shift", 2, 2)])
    def test_rules_disagree_below_the_integrand_degree(self, structure):
        # the integrand (1 - k_N(|z|^2)) ||(I - B(z))^{-*} Delta||_F^2 has
        # degree at most nd - 1, below theta's bound nd - 1 + b-support, so
        # a bound one short still gives an exact rule; degree 0 is short of
        # the integrand's here (by one for the shift, nd = 2).  The rules of
        # degree 0 and 1 differ by 7e-7 (jordan) and 3e-4 (shift): far above
        # the noise floor and below 1e-3, so Monte Carlo runs
        t = random_nilpotent_tuple(np.random.default_rng(1), structure=structure)
        k = cc.preset("drury-arveson", d=t.d, N=16)
        pkg = cc.defect_package(t, k)
        est = curvature_integral(pkg, k, n_samples=200, seed=2, degree=0)
        assert est == monte_carlo_reference(pkg, k, 0.999, 200, 2)

    @pytest.mark.parametrize("t,name,run_settings", [
        (random_nilpotent_tuple(np.random.default_rng(6), structure=("shift", 3, 2)),
         "drury-arveson", RunSettings(n_samples=300, n_max=6)),            # d = 3
        (cc.load_tuple([np.zeros((2, 2))]), "dirichlet",                   # not certified
         RunSettings(n_op=40, n_theta=40, n_samples=300, n_max=6)),        # polynomial
    ], ids=["d3", "dirichlet"])
    def test_monte_carlo_elsewhere(self, t, name, run_settings):
        k = cc.preset(name, d=t.d, N=44)
        res = run_curvature(t, k, run_settings)
        assert res.report.k_integral == monte_carlo_reference(res.pkg, k, 0.999, 300, 7)


class TestPureRoute:
    def test_jordan(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        profile = DegreeProfile.build(pkg, k)
        assert curvature_pure(pkg, True, profile, fd_estimate=1, purity_residual=0.0) == 0

    def test_zero_tuple(self):
        m = 2
        t = cc.load_tuple([np.zeros((m, m))])
        k = cc.preset("drury-arveson", d=1, N=8)
        pkg = cc.defect_package(t, k, n_op=1)
        profile = DegreeProfile.build(pkg, k, n_theta=1)
        assert curvature_pure(pkg, True, profile, fd_estimate=m, purity_residual=0.0) == 0

    def test_vanishing_symbol_extreme_case(self):
        k = cc.preset("drury-arveson", d=1, N=8)
        t = cc.load_tuple([np.zeros((1, 1))])
        pkg = cc.defect_package(t, k, n_op=1)
        series = synthetic_series(1, {(0,): np.zeros((1, 1))}, 1, 0, k)
        profile = profile_from_series(series, k)
        assert curvature_pure(pkg, True, profile, fd_estimate=0, purity_residual=0.0) == 1

    def test_not_pure(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(t, k)
        profile = DegreeProfile.build(pkg, k)
        with pytest.raises(NotPure):
            curvature_pure(pkg, True, profile, fd_estimate=1, purity_residual=1.0)


class TestPipelineAndReconcile:
    def test_jordan_full_agreement(self):
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=16)
        res = run_curvature(t, k, RunSettings(n_samples=400, n_max=12))
        r = res.report
        assert r.verdict.ok
        assert abs(r.k_series) <= 1e-12
        assert abs(r.k_weighted[-1]) <= 1e-12
        assert abs(r.k_integral.estimate) <= 0.01
        assert r.k_pure == 0 and r.fd_eval == 1
        assert r.purity_exact

    def test_zero_tuple_dirichlet_documented_gap(self):
        t = cc.load_tuple([np.zeros((2, 2))])
        k = cc.preset("dirichlet", d=1, N=44)
        res = run_curvature(
            t, k, RunSettings(n_op=40, n_theta=40, n_max=12, n_samples=300)
        )
        r = res.report
        assert r.verdict.ok
        expected = 2 * (1 - k.b_partial_sum(40))
        assert r.k_series == pytest.approx(expected, abs=1e-12)
        assert r.k_series >= 0.0

    def test_truncation_gap_shrinks_with_horizon(self):
        t = cc.load_tuple([np.zeros((1, 1))])
        k = cc.preset("dirichlet", d=1, N=64)
        values = []
        for n in (20, 40, 60):
            res = run_curvature(
                t, k, RunSettings(n_op=n, n_theta=n, n_max=8, n_samples=100)
            )
            values.append(res.report.k_series)
        assert values[0] > values[1] > values[2] > 0

    def test_mismatched_kernel_rejected(self):
        t = cc.load_tuple([jordan_block(3)])
        k1 = cc.preset("szego", d=1, N=16)
        k2 = cc.preset("dirichlet", d=1, N=16)
        pkg = cc.defect_package(t, k1)
        from cnpcurv.curvature import (
            CurvatureReport,
            IntegralEstimate,
            ordering_rows,
            reconcile,
        )

        report = CurvatureReport(
            dim_ran_delta=pkg.rank_delta,
            rank_d=pkg.rank_d,
            purity_residual=0.0,
            purity_exact=True,
            trace_dpsi_series=1.0,
            k_series=0.0,
            k_weighted=np.zeros(3),
            k_integral=IntegralEstimate(0.0, 0.0, 0.9, 10, 1),
            k_at_radius_exact=0.0,
            k_pure=0,
            fd_eval=1,
            is_polynomial=True,
            theta_degree_bound=3,
            n_theta=3,
            n_op=2,
            tail_bound=0.0,
            convergence=ordering_rows(DegreeProfile.build(pkg, k1, 3)),
        )
        with pytest.raises(ReconcileFailure):
            reconcile(report, pkg, k2)

    def test_profile_built_once(self, monkeypatch):
        # every scalar route reads one profile, built from the traces of the
        # one sigma walk, the one that sums the purity series; the per-degree
        # view theta_trace_E_normalized is for callers outside the pipeline
        import cnpcurv.curvature as curv
        import cnpcurv.pipeline as pipeline
        import cnpcurv.tuples as tuples

        builds, walks = [], []
        build = DegreeProfile.build
        walk = tuples.purity

        def counting(pkg, k, n_max=0, n_theta=None, traces=None):
            builds.append(n_max)
            return build(pkg, k, n_max, n_theta, traces)

        def counting_walk(pkg, k, n_op=None, n_traces=0):
            walks.append(n_traces)
            return walk(pkg, k, n_op, n_traces)

        def unused(*args):
            raise AssertionError("theta_trace_E_normalized called")

        monkeypatch.setattr(DegreeProfile, "build", counting)
        for module in (tuples, curv, pipeline):
            monkeypatch.setattr(module, "purity", counting_walk)
        monkeypatch.setattr(curv, "theta_trace_E_normalized", unused)
        t = cc.load_tuple([jordan_block(3)])
        k = cc.preset("szego", d=1, N=16)
        run_curvature(t, k, RunSettings(n_samples=100, n_max=12))
        assert builds == [12]
        assert walks == [3]

    def test_estimator_ranges_on_random_tuples(self, rng):
        for _ in range(4):
            t = random_nilpotent_tuple(rng)
            k = cc.preset("drury-arveson", d=t.d, N=14)
            res = run_curvature(t, k, RunSettings(n_samples=200, n_max=8))
            r = res.report
            dim = r.dim_ran_delta
            for val in (r.k_series, float(r.k_weighted[-1]), r.k_integral.estimate):
                assert -1e-8 <= val <= dim + 1e-8

    def test_unitary_invariance_of_k_series(self, rng):
        t = random_nilpotent_tuple(rng)
        k = cc.preset("drury-arveson", d=t.d, N=14)
        pkg = cc.defect_package(t, k)
        base = pkg.rank_delta - DegreeProfile.build(pkg, k).series_value
        for _ in range(3):
            t2 = cc.conjugate_by_unitary(t, random_unitary(rng, t.dim_h))
            pkg2 = cc.defect_package(t2, k)
            val = pkg2.rank_delta - DegreeProfile.build(pkg2, k).series_value
            assert val == pytest.approx(base, abs=1e-10)

    def test_parrott_d1(self, rng):
        # d = 1 constant-coefficient kernel: both defect ranks coincide and
        # the pure integer route lands on zero
        k = cc.preset("szego", d=1, N=12)
        for _ in range(5):
            t = random_nilpotent_tuple(rng, structure=("jordan", 1, None))
            res = run_curvature(t, k, RunSettings(n_samples=100, n_max=8))
            assert res.pkg.rank_delta == res.pkg.rank_d
            assert res.report.k_pure == 0


class TestGates:
    """A gate fails just outside its bound and passes at or inside it, on the
    report of a J_3 run over szego with chosen fields."""

    @pytest.fixture(scope="class")
    def run(self):
        t = cc.load_tuple([jordan_block(3)])
        return run_curvature(t, cc.preset("szego", d=1, N=16), RunSettings(n_samples=400))

    @pytest.mark.parametrize("gap,raises", [(0.05 * (1 - 1e-9), False), (0.05 * (1 + 1e-9), True)],
                             ids=["inside", "outside"])
    def test_integrality(self, run, gap, raises):
        # a stand-in profile whose one term puts K_series = 1 - gap
        profile = replace(run.profile, c=np.array([gap]))
        assert run.report.is_polynomial and run.pkg.rank_delta == 1
        args = (run.pkg, True, profile, 1, 0.0)
        if raises:
            with pytest.raises(IntegerMismatch, match="not near an integer"):
                curvature_pure(*args)
        else:
            assert curvature_pure(*args) == 0

    @pytest.mark.parametrize("excess,raises", [(0.0, False), (2e-8, True)], ids=["at-dim", "outside"])
    def test_range(self, run, excess, raises):
        # every estimator and the same-radius average sit at dim + excess,
        # so no check but the range sees a change
        rep, v = run.report, run.report.dim_ran_delta + excess
        moved = replace(
            rep, k_series=v, k_at_radius_exact=v, k_weighted=np.full_like(rep.k_weighted, v),
            k_integral=replace(rep.k_integral, estimate=v),
        )
        if raises:
            with pytest.raises(ReconcileFailure, match="check range:k_series:"):
                reconcile(moved, run.pkg, run.k)
        else:
            assert reconcile(moved, run.pkg, run.k).ok

    # (stderr of the integral, gate position): the tolerance is 3 stderr
    # plus a 1e-13 floor, so the stderr-0 cases hold the floor alone
    @pytest.mark.parametrize("stderr", [0.0, 1e-3], ids=["floor", "3-sigma"])
    @pytest.mark.parametrize("scale,raises", [(0.99, False), (1.01, True)], ids=["inside", "outside"])
    def test_monte_carlo(self, run, stderr, scale, raises):
        rep = run.report
        tol = 3.0 * stderr + 1e-13 * max(1.0, rep.dim_ran_delta)
        moved = replace(rep, k_integral=replace(
            rep.k_integral, stderr=stderr, estimate=rep.k_at_radius_exact + scale * tol))
        self._assert_gate(run, moved, raises, "integral_vs_series_at_radius")

    @pytest.mark.parametrize("scale,raises", [(0.99, False), (1.01, True)], ids=["inside", "outside"])
    def test_radius_truncation(self, run, scale, raises):
        # the same-radius average and the integral move together, so only
        # the radius check sees K_series (0 here) drift from them
        rep, r = run.report, run.report.k_integral.radius
        bound = rep.dim_ran_delta * (1.0 - r ** (2 * rep.n_theta)) + run.pkg.tol.eps_id
        v = rep.k_series + scale * bound
        moved = replace(rep, k_at_radius_exact=v, k_integral=replace(rep.k_integral, estimate=v))
        self._assert_gate(run, moved, raises, "radius_truncation")

    @pytest.mark.parametrize("scale,raises", [(0.99, False), (1.01, True)], ids=["inside", "outside"])
    def test_weighted_vs_series(self, run, scale, raises):
        rep = run.report
        assert rep.is_polynomial and len(rep.k_weighted) > rep.theta_degree_bound
        k_weighted = rep.k_weighted.copy()
        k_weighted[-1] = rep.k_series + scale * 1e-9
        self._assert_gate(run, replace(rep, k_weighted=k_weighted), raises, "weighted_vs_series")

    @pytest.mark.parametrize("n", [0, 3, 12])
    @pytest.mark.parametrize("scale,raises", [(0.99, False), (1.01, True)], ids=["inside", "outside"])
    def test_ordering(self, run, n, scale, raises):
        rep = run.report
        rows = [dict(row) for row in rep.convergence]
        rows[n]["t_e_normalized"] = rows[n]["dpsi_partial"] - scale * 1e-10
        self._assert_gate(run, replace(rep, convergence=rows), raises, f"ordering_e_vs_dpsi[n={n}]")

    @pytest.mark.parametrize("scale,recorded", [(1.0, True), (1.01, False)], ids=["at-gate", "outside"])
    def test_finite_horizon_check_needs_purity(self, run, scale, recorded):
        rep = replace(run.report, purity_residual=scale * run.pkg.tol.eps_pure)
        names = [c.name for c in reconcile(rep, run.pkg, run.k).checks]
        assert ("finite_horizon:series_vs_fd_eval" in names) == recorded

    @staticmethod
    def _assert_gate(run, moved, raises, name):
        if raises:
            with pytest.raises(ReconcileFailure, match=re.escape(f"check {name}:")):
                reconcile(moved, run.pkg, run.k)
        else:
            verdict = reconcile(moved, run.pkg, run.k)
            assert verdict.ok and name in [c.name for c in verdict.checks]


class TestFiniteHorizonCheck:
    """finite_horizon:series_vs_fd_eval records |trace dPsi - fd_eval| <= 0.05
    for a pure tuple; it is never asserted."""

    @staticmethod
    def _check(report):
        found = [c for c in report.verdict.checks if c.name == "finite_horizon:series_vs_fd_eval"]
        return found[0] if found else None

    def test_jordan_records_ok(self):
        t = cc.load_tuple([jordan_block(3)])
        res = run_curvature(t, cc.preset("szego", d=1, N=16), RunSettings(n_samples=400, n_max=12))
        check = self._check(res.report)
        assert check.ok and not check.asserted
        assert abs(check.value - check.reference) <= 1e-10

    def test_dirichlet_truncation_gap_is_recorded(self):
        # slow b-tails leave a genuine deficit at any finite horizon: the
        # series value sits below the evaluation rank by the b-mass residue
        t = cc.load_tuple([np.zeros((2, 2))])
        k = cc.preset("dirichlet", d=1, N=44)
        res = run_curvature(t, k, RunSettings(n_op=40, n_theta=40, n_max=10, n_samples=100))
        check = self._check(res.report)
        assert not check.ok and not check.asserted
        assert abs(check.value - check.reference) == pytest.approx(
            2 * (1 - k.b_partial_sum(40)), abs=1e-10
        )
        assert res.report.verdict.ok

    def test_impure_tuple_gets_no_check(self):
        # diag(1, 0) has a joint eigenvalue on the circle: purity fails
        t = cc.load_tuple([np.diag([1.0, 0.0])])
        res = run_curvature(t, cc.preset("szego", d=1, N=16), RunSettings(n_op=8, n_samples=200))
        assert res.report.purity_residual > DEFAULT.eps_pure
        assert self._check(res.report) is None


class TestDegenerateCodomain:
    def test_boundary_tuple_has_empty_defect_range(self):
        # the identity tuple sits on the contraction boundary: Delta = 0,
        # theta has no rows, and every estimator returns dim = 0
        t = cc.load_tuple([np.eye(2)])
        k = cc.preset("drury-arveson", d=1, N=8)
        pkg = cc.defect_package(t, k, n_op=4)
        assert pkg.rank_delta == 0
        est = curvature_integral(pkg, k, radius=0.5, n_samples=50, seed=1)
        assert est.estimate == 0.0 and est.stderr == 0.0
        assert DegreeProfile.build(pkg, k, n_theta=4).series_value == 0.0

    def test_sample_count_validated(self):
        t = cc.load_tuple([jordan_block(2)])
        k = cc.preset("szego", d=1, N=8)
        pkg, _ = build(t, k)
        with pytest.raises(ValueError):
            curvature_integral(pkg, k, n_samples=0)


class TestExplicitMatrixCrossCheck:
    def test_series_identity_on_characteristic_functions(self, rng):
        # the explicit multiplication-matrix route stays as a cross-check of
        # the coefficient formula, on real characteristic functions
        from oracles import series_identity_check

        cases = [
            (cc.load_tuple([jordan_block(3)]), cc.preset("szego", d=1, N=12)),
            (
                random_nilpotent_tuple(rng, structure=("shift", 2, 2)),
                cc.preset("drury-arveson", d=2, N=12),
            ),
        ]
        for t, k in cases:
            pkg, series = build(t, k)
            profile = DegreeProfile.build(pkg, k, 6)
            for n in range(7):
                chk = series_identity_check(k, series.coeffs, n)
                assert chk.residual <= 1e-11
                assert chk.rhs == pytest.approx(
                    theta_trace_E_normalized(profile, n), abs=1e-11
                )
