"""Batched evaluation of theta: agreement with the per-point reference,
the gates on multi-chunk batches, and the memory bound."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cnpcurv as cc
from cnpcurv import charfn
from cnpcurv.charfn import _point_bytes, _theta_map, check_consistency, sample_ball_points
from cnpcurv.config import DEFAULT
from cnpcurv.curvature import curvature_integral
from cnpcurv.errors import NearSingular, OutsideBall
from cnpcurv.fibredim import fd_report
from cnpcurv.tuples import op_norm

from conftest import (
    jordan_block,
    random_nilpotent_tuple,
    random_unitary,
    truncated_shift_ops,
    write_tuple,
)
from oracles import resolvent_input, theta_reference

CHUNK = 5


def _shift(d, top, scale):
    return cc.load_tuple([scale * m for m in truncated_shift_ops(d, top)])


# name -> (tuple builder, kernel preset, d, kernel horizon, n_op)
CASES = {
    "szego-d1-jordan4": (lambda: cc.load_tuple([jordan_block(4)]), "szego", 1, 12, None),
    "szego-d1-scalar": (lambda: cc.load_tuple([np.array([[0.5]])]), "szego", 1, 40, 30),
    "da-d1-diag": (lambda: cc.load_tuple([np.diag([0.6, 0.2j])]), "drury-arveson", 1, 20, 12),
    "da-d2-shift": (lambda: _shift(2, 3, 0.4), "drury-arveson", 2, 12, None),
    "da-d2-diag": (
        lambda: cc.load_tuple([np.diag([0.4, 0.2]), np.diag([0.1, 0.3])]),
        "drury-arveson", 2, 20, 14,
    ),
    "da-d3-random": (
        lambda: random_nilpotent_tuple(np.random.default_rng(5), ("shift", 3, 2)),
        "drury-arveson", 3, 12, None,
    ),
    "dirichlet-d1-zero3": (lambda: cc.load_tuple([np.zeros((3, 3))]), "dirichlet", 1, 20, 12),
    "dirichlet-d1-scalar": (lambda: cc.load_tuple([np.array([[0.3]])]), "dirichlet", 1, 30, 20),
    "dirichlet-d2-shift": (lambda: _shift(2, 3, 0.4), "dirichlet", 2, 12, None),
    "dirichlet-d3-shift": (lambda: _shift(3, 2, 0.5), "dirichlet", 3, 10, None),
    "dirichlet-d3-diag": (
        lambda: cc.load_tuple(
            [np.diag([0.3, 0.1]), np.diag([0.2, 0.25]), np.diag([0.1, 0.2])]
        ),
        "dirichlet", 3, 10, 6,
    ),
}


def build(name):
    make, kernel, d, horizon, n_op = CASES[name]
    k = cc.preset(kernel, d=d, N=horizon)
    return cc.defect_package(make(), k, n_op=n_op), k


def ball_points(d, n, seed):
    """Points at radii spread over (0, 0.95), directions uniform."""
    rng = np.random.default_rng(seed)
    u = sample_ball_points(d, n, 1.0, seed)
    return (0.95 * rng.random(n))[:, None] * u


@pytest.fixture
def small_chunks(monkeypatch):
    """Make _theta_map cut its points into chunks of CHUNK for a package."""
    def apply(pkg, d):
        monkeypatch.setattr(charfn, "_CHUNK_BYTES", CHUNK * _point_bytes(pkg, d))
    return apply


def assert_close(theta, reference):
    scale = max(1.0, op_norm(reference))
    assert op_norm(theta - reference) <= 1e-12 * scale


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize(
        "count, chunks",
        [(1, [1]), (7, [5, 2]), (23, [5, 5, 5, 5, 3])],
    )
    def test_batched_theta_matches(self, name, count, chunks, small_chunks):
        pkg, k = build(name)
        small_chunks(pkg, k.d)
        points = ball_points(k.d, count, seed=count)
        seen = []

        def keep(zc, theta):
            seen.append(len(zc))
            return theta

        thetas = _theta_map(pkg, k, points, keep)
        assert seen == chunks
        assert thetas.shape == (count, pkg.rank_delta, pkg.rank_d)
        for z, theta in zip(points, thetas):
            assert_close(theta, theta_reference(pkg, k, z))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_eval_theta_is_the_one_point_case(self, name):
        pkg, k = build(name)
        for z in ball_points(k.d, 4, seed=3):
            pe = cc.eval_theta(pkg, k, z)
            ref = theta_reference(pkg, k, z)
            assert_close(pe.theta, ref)
            if ref.size:
                sv = np.linalg.svd(ref, compute_uv=False)
                assert np.allclose(pe.singular_values, sv, rtol=0, atol=1e-12)

    def test_default_budget_several_chunks(self):
        pkg, k = build("dirichlet-d1-zero3")
        chunk = charfn._CHUNK_BYTES // _point_bytes(pkg, k.d)
        points = ball_points(k.d, 2 * chunk + 3, seed=9)
        seen = []

        def frob(zc, theta):
            seen.append(len(zc))
            return np.sum(np.abs(theta) ** 2, axis=(1, 2))

        got = _theta_map(pkg, k, points, frob)
        assert seen == [chunk, chunk, 3]
        want = [np.sum(np.abs(theta_reference(pkg, k, z)) ** 2) for z in points]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestEstimatorReductions:
    @pytest.mark.parametrize("name", ["da-d2-shift", "dirichlet-d3-diag", "szego-d1-scalar"])
    def test_integral_fd_and_consistency(self, name, small_chunks):
        pkg, k = build(name)
        small_chunks(pkg, k.d)

        est = curvature_integral(pkg, k, radius=0.9, n_samples=37, seed=4)
        points = sample_ball_points(k.d, 37, 0.9, 4)
        vals = [pkg.rank_delta - np.sum(np.abs(theta_reference(pkg, k, z)) ** 2) for z in points]
        assert est.estimate == pytest.approx(np.mean(vals), abs=1e-12)
        assert est.stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(37), abs=1e-12)

        rep = fd_report(pkg, k, n_samples=23, radius=0.8, seed=6)
        for z, rank in rep.rank_samples:
            ref = theta_reference(pkg, k, np.array(z))
            sv = np.linalg.svd(ref, compute_uv=False) if ref.size else np.zeros(0)
            want = int(np.sum(sv > DEFAULT.eps_rank * sv[0])) if sv.size and sv[0] else 0
            assert rank == want
        assert rep.fd_eval == max(rank for _, rank in rep.rank_samples)

        series = cc.taylor(pkg, k, n_theta=min(pkg.n_op, 4))
        chk = check_consistency(series, pkg, k, n_samples=13, r_check=0.5, seed=8)
        worst = max(
            op_norm(theta_reference(pkg, k, z) - series.evaluate(z))
            for z in sample_ball_points(k.d, 13, 0.5, 8)
        )
        assert chk.max_residual == pytest.approx(worst, abs=1e-12)

    def test_series_evaluate_stacks_points(self):
        pkg, k = build("dirichlet-d2-shift")
        series = cc.taylor(pkg, k)
        points = ball_points(k.d, 6, seed=2)
        stacked = series.evaluate(points)
        for z, value in zip(points, stacked):
            direct = sum(
                a * np.prod([zi**e for zi, e in zip(z, key)])
                for key, a in series.coeffs.items()
            )
            assert np.allclose(value, direct, rtol=0, atol=1e-14)
            assert np.allclose(series.evaluate(z), value, rtol=0, atol=1e-15)


class TestGatesOnBatches:
    def test_outside_ball_only_last_point(self, small_chunks):
        pkg, k = build("da-d2-shift")
        small_chunks(pkg, k.d)
        calls = []
        for bad in (1.0, 1.2, np.nan, complex(0.1, np.nan), np.inf):
            points = ball_points(k.d, 3 * CHUNK + 2, seed=1)
            points[-1] = 0.0
            points[-1, 0] = bad
            with pytest.raises(OutsideBall):
                _theta_map(pkg, k, points, lambda zc, th: calls.append(len(zc)))
        # the finiteness and norm gates run before any chunk is evaluated
        assert calls == []

    def test_near_singular_only_last_point(self, small_chunks):
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(cc.load_tuple([np.diag([1.0, 0.0])]), k, n_op=3)
        small_chunks(pkg, k.d)
        good = np.full((3 * CHUNK + 1, 1), 0.5 + 0j)
        assert _theta_map(pkg, k, good, lambda zc, th: th[:, 0, 0]).shape == (16,)
        points = np.vstack([good, [[1.0 - 1e-13]]])
        with pytest.raises(NearSingular):
            _theta_map(pkg, k, points, lambda zc, th: th[:, 0, 0])

    def test_gate_matches_per_point_condition_number(self, small_chunks):
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(cc.load_tuple([np.diag([1.0, 0.0])]), k, n_op=3)
        small_chunks(pkg, k.d)
        outcomes = set()
        for e in range(2, 16):
            z = np.array([1.0 - 10.0**-e])
            b, _ = resolvent_input(pkg, k, z)
            fails = np.linalg.cond(np.eye(pkg.dim_h) - b) > DEFAULT.near_singular_cond
            outcomes.add(fails)
            points = np.vstack([np.full((2 * CHUNK, 1), 0.3 + 0j), z[None]])
            if fails:
                with pytest.raises(NearSingular):
                    _theta_map(pkg, k, points, lambda zc, th: th[:, 0, 0])
            else:
                _theta_map(pkg, k, points, lambda zc, th: th[:, 0, 0])
        assert outcomes == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 8),
        log_kappas=st.lists(st.floats(0.0, 16.0), min_size=1, max_size=6),
        log_gate=st.sampled_from([4, 8, 12, 14]),
        singular=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gate_decision_is_the_condition_number_test(
        self, dim, log_kappas, log_gate, singular, seed
    ):
        # singular values spread from 1 down to 1/kappa, random magnitude
        # and rotations; diag(1, ..., 1, 0) is exactly singular
        rng = np.random.default_rng(seed)
        stack = [
            10.0 ** rng.uniform(-3, 3)
            * random_unitary(rng, dim)
            @ np.diag(np.geomspace(1.0, 10.0**-e, dim))
            @ random_unitary(rng, dim)
            for e in log_kappas
        ]
        if singular:
            stack.insert(int(rng.integers(len(stack) + 1)), np.diag([1.0] * (dim - 1) + [0.0]))
        stack = np.array(stack, dtype=complex)
        gate = 10.0**log_gate
        want = np.linalg.cond(stack) > gate
        assert np.array_equal(charfn._ill_conditioned(stack, gate), want)

    def test_default_curvature_run_takes_no_svd(self, tmp_path, monkeypatch, capsys):
        # every point of the run clears the gate on the inverse-based bound
        from cnpcurv.cli import main

        orders = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda x, p=None: orders.append(p) or real(x, p))
        f = write_tuple(tmp_path / "j4.json", [jordan_block(4)])
        assert main(["curvature", "--input", f, "--kernel", "szego"]) == 0
        assert orders and set(orders) == {"fro"}

    def test_curvature_integral_at_the_boundary(self, monkeypatch):
        # I - B(z) = diag(1 - z, 1) is near singular only close to z = 1,
        # which a uniform sample of the circle of radius 1 - 1e-13 misses:
        # the integral is then 1 - r^2 up to rounding, as it was per point
        k = cc.preset("drury-arveson", d=1, N=5)
        pkg = cc.defect_package(cc.load_tuple([np.diag([1.0, 0.0])]), k, n_op=3)
        r = 1 - 1e-13
        est = curvature_integral(pkg, k, radius=r)
        assert est.estimate == pytest.approx(1 - r**2, abs=1e-15)

        # a sample whose last point sits at r on the positive axis trips the
        # gate, although every earlier chunk is fine
        def with_bad_last(d, n, radius, seed):
            points = sample_ball_points(d, n, radius, seed)
            points[-1] = radius
            return points

        monkeypatch.setattr("cnpcurv.curvature.sample_ball_points", with_bad_last)
        with pytest.raises(NearSingular):
            curvature_integral(pkg, k, radius=r)


class TestMemoryBound:
    def test_integral_peak_is_bounded(self):
        # unchunked, the right-hand side alone would be
        # 4000 x 3 x 180 complex entries, about 34 MB
        k = cc.preset("dirichlet", d=1, N=60)
        pkg = cc.defect_package(cc.load_tuple([np.zeros((3, 3))]), k, n_op=60)
        assert (pkg.dim_h, pkg.rank_d) == (3, 180)
        tracemalloc.start()
        try:
            est = curvature_integral(pkg, k, n_samples=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert 0.0 < est.estimate < 3.0
