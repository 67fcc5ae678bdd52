"""The dense oracles of tests/oracles.py: raising matrices, the CP map,
both dPsi routes, and the multiplier identities."""
import numpy as np
import pytest

import cnpcurv as cc
from cnpcurv.comb import q
from cnpcurv.errors import HorizonExceeded
from oracles import (
    PolySpace,
    dpsi_trace_partial,
    factx_check,
    mz_matrix,
    multiplier_gram,
    phi_apply,
    series_identity_check,
    trace_E,
    trace_P,
    trace_phi_E,
    trace_table,
    weighted_degree_trace,
)


def scalar_coeffs(d: int, *terms) -> dict:
    """{gamma: 1x1 matrix} from (gamma_entries, value) pairs."""
    return {tuple(g): np.array([[v]], dtype=complex) for g, v in terms}


class TestMzMatrix:
    def test_alpha_zero_is_identity(self):
        space = PolySpace(cc.preset("dirichlet", d=2, N=6), r=2, max_degree=3)
        assert np.allclose(mz_matrix(space, (0, 0)), np.eye(space.dim))

    def test_szego_shift(self):
        space = PolySpace(cc.preset("szego", d=1, N=6), r=1, max_degree=4)
        m = mz_matrix(space, (1,))
        expected = np.diag(np.ones(4), -1)
        assert np.allclose(m, expected)

    def test_dirichlet_first_factor(self):
        space = PolySpace(cc.preset("dirichlet", d=1, N=6), r=1, max_degree=2)
        m = mz_matrix(space, (1,))
        assert m[1, 0] == pytest.approx(np.sqrt(2.0))

    def test_action_matches_polynomial_multiplication(self, rng):
        # oracle: multiply monomials directly and renormalize
        k = cc.preset("dirichlet", d=2, N=8)
        space = PolySpace(k, r=1, max_degree=4)
        alpha = (1, 1)
        m = mz_matrix(space, alpha)
        for beta in space.betas:
            col = m[:, space.flat(beta, 0)]
            if beta.degree + 2 > 4:
                assert np.allclose(col, 0.0)
                continue
            target = tuple(b + a for b, a in zip(beta.entries, alpha))
            expected = np.zeros(space.dim)
            expected[space.flat(target, 0)] = np.sqrt(
                k.a_of(beta) / k.a_of(target)
            )
            assert np.allclose(col, expected)

    def test_horizon_guard(self):
        space = PolySpace(cc.preset("szego", d=1, N=6), r=1, max_degree=3)
        with pytest.raises(HorizonExceeded):
            mz_matrix(space, (4,))


class TestBlockTraces:
    def test_identity_traces(self):
        for d, r in ((1, 2), (2, 1), (3, 3)):
            k = cc.preset("drury-arveson", d=d, N=8) if d > 1 else cc.preset(
                "szego", d=1, N=8
            )
            space = PolySpace(k, r=r, max_degree=5)
            eye = np.eye(space.dim, dtype=complex)
            for n in range(6):
                assert trace_E(space, eye, n) == pytest.approx(r * q(d - 1, n))
                assert trace_P(space, eye, n) == pytest.approx(r * q(d, n))

    def test_projection_block(self):
        k = cc.preset("dirichlet", d=2, N=8)
        space = PolySpace(k, r=2, max_degree=5)
        p3 = np.zeros((space.dim, space.dim), dtype=complex)
        sl = space.degree_slice(3)
        p3[sl, sl] = np.eye(sl.stop - sl.start)
        assert trace_E(space, p3, 3) == pytest.approx(2 * q(1, 3))
        assert trace_E(space, p3, 2) == 0.0


class TestPhi:
    def test_phi_of_zero(self):
        space = PolySpace(cc.preset("dirichlet", d=1, N=8), r=1, max_degree=4)
        assert np.allclose(phi_apply(space, np.zeros((space.dim, space.dim))), 0.0)

    def test_phi_kills_degree_zero(self, rng):
        space = PolySpace(cc.preset("dirichlet", d=2, N=8), r=2, max_degree=4)
        x = space.random_hermitian(rng)
        out = phi_apply(space, x)
        assert trace_E(space, out, 0) == pytest.approx(0.0, abs=1e-13)

    def test_matrix_and_direct_trace_routes_agree(self, rng):
        for name, d in (("dirichlet", 2), ("drury-arveson", 3)):
            k = cc.preset(name, d=d, N=8)
            space = PolySpace(k, r=2, max_degree=4)
            x = space.random_hermitian(rng)
            full = phi_apply(space, x)
            for n in range(5):
                assert trace_E(space, full, n) == pytest.approx(
                    trace_phi_E(space, x, n), rel=1e-12, abs=1e-12
                )

    def test_reduced_closed_form(self, rng):
        # the weight-identity reduction of trace(Phi(X) E_i)
        k = cc.preset("dirichlet", d=2, N=8)
        space = PolySpace(k, r=1, max_degree=6)
        x = space.random_hermitian(rng)
        for i in range(1, 7):
            direct = trace_phi_E(space, x, i)
            reduced = (q(1, i) / k.a[i]) * sum(
                k.b[i - j] * k.a[j] / q(1, j) * trace_E(space, x, j)
                for j in range(i)
            )
            assert direct == pytest.approx(reduced, rel=1e-11, abs=1e-11)


class TestDpsiRoutes:
    def test_identity_input_gives_one(self, rng):
        for name in ("szego", "dirichlet"):
            k = cc.preset(name, d=1, N=10)
            space = PolySpace(k, r=1, max_degree=8)
            eye = np.eye(space.dim, dtype=complex)
            for n in (0, 3, 7):
                assert dpsi_trace_partial(space, eye, n) == pytest.approx(1.0)

    def test_two_routes_agree_random_hermitian(self, rng):
        k = cc.preset("drury-arveson", d=2, N=8)
        space = PolySpace(k, r=2, max_degree=6)
        for _ in range(5):
            x = space.random_hermitian(rng)
            for n in (2, 4, 6):
                assert dpsi_trace_partial(space, x, n) == pytest.approx(
                    weighted_degree_trace(space, x, n), rel=1e-12, abs=1e-12
                )

    def test_zero(self):
        space = PolySpace(cc.preset("dirichlet", d=1, N=6), r=1, max_degree=4)
        assert dpsi_trace_partial(space, np.zeros((space.dim, space.dim)), 3) == 0.0

    def test_positive_monotone_and_bounded(self):
        k = cc.preset("dirichlet", d=1, N=12)
        coeffs = scalar_coeffs(1, ((2,), 0.7), ((0,), 0.3))
        space, x = multiplier_gram(k, coeffs, max_degree=10)
        prev = -1.0
        for n in range(9):
            val = dpsi_trace_partial(space, x, n)
            assert val >= prev - 1e-12
            assert val <= 1 * np.linalg.norm(x, 2) + 1e-10
            prev = val

    def test_positivity_of_difference(self):
        k = cc.preset("dirichlet", d=2, N=8)
        coeffs = {
            (0, 0): np.array([[0.2]], dtype=complex),
            (1, 0): np.array([[0.5]], dtype=complex),
            (0, 1): np.array([[-0.3j]], dtype=complex),
        }
        space, x = multiplier_gram(k, coeffs, max_degree=6)
        for i in range(7):
            assert trace_E(space, x, i) - trace_phi_E(space, x, i) >= -1e-12


class TestSeriesIdentity:
    def test_constant_symbol(self):
        k = cc.preset("dirichlet", d=2, N=4)
        a0 = np.array([[0.4, 0.1], [0.0, 0.2]], dtype=complex)
        chk = series_identity_check(k, {(0, 0): a0}, 0)
        expected = float(np.sum(np.abs(a0) ** 2))
        assert chk.lhs == pytest.approx(expected)
        assert chk.rhs == pytest.approx(expected)

    def test_cubed_coordinate_szego(self):
        k = cc.preset("szego", d=1, N=8)
        chk = series_identity_check(k, scalar_coeffs(1, ((3,), 1.0)), 5)
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(1.0, abs=1e-12)

    def test_linear_dirichlet_d2(self):
        k = cc.preset("dirichlet", d=2, N=6)
        coeffs = {
            (1, 0): np.array([[1.0]], dtype=complex),
            (0, 1): np.array([[1.0]], dtype=complex),
        }
        chk = series_identity_check(k, coeffs, 2)
        assert chk.residual <= 1e-12

    def test_random_matrix_symbol(self, rng):
        k = cc.preset("dirichlet", d=2, N=6)
        coeffs = {}
        for g in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
            coeffs[g] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for n in range(5):
            assert series_identity_check(k, coeffs, n).residual <= 1e-11


class TestFactX:
    def test_constant_one(self):
        k = cc.preset("dirichlet", d=1, N=12)
        res = factx_check(k, scalar_coeffs(1, ((0,), 1.0)), max_degree=10, n_terms=6)
        assert res <= 1e-12

    def test_zero_symbol(self):
        k = cc.preset("szego", d=1, N=10)
        res = factx_check(k, scalar_coeffs(1, ((0,), 0.0)), max_degree=8, n_terms=4)
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_cubed_coordinate(self):
        k = cc.preset("szego", d=1, N=14)
        res = factx_check(k, scalar_coeffs(1, ((3,), 1.0)), max_degree=12, n_terms=5)
        assert res <= 1e-12

    def test_d2_mixed(self):
        k = cc.preset("dirichlet", d=2, N=8)
        coeffs = {
            (1, 0): np.array([[0.6]], dtype=complex),
            (0, 1): np.array([[0.4j]], dtype=complex),
        }
        assert factx_check(k, coeffs, max_degree=7, n_terms=4) <= 1e-12

    def test_window_guard(self):
        k = cc.preset("szego", d=1, N=10)
        with pytest.raises(HorizonExceeded):
            factx_check(k, scalar_coeffs(1, ((3,), 1.0)), max_degree=5, n_terms=4)


class TestTraceTable:
    def test_rows_for_projection_symbol(self):
        k = cc.preset("szego", d=1, N=12)
        space, x = multiplier_gram(k, scalar_coeffs(1, ((3,), 1.0)), max_degree=10)
        rows = trace_table(space, x, 8)
        for row in rows:
            expected_te = 1.0 if row.n >= 3 else 0.0
            assert row.t_e_normalized == pytest.approx(expected_te, abs=1e-12)
            expected_tp = max(0, row.n - 2) / (row.n + 1)
            assert row.t_p_normalized == pytest.approx(expected_tp, abs=1e-12)
