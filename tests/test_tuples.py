"""Tuple validation, defect construction, tail certificates, purity,
unitary conjugation."""
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cnpcurv as cc
from cnpcurv.comb import q
from cnpcurv.errors import (
    CommutatorError,
    NotContraction,
    NotUnitary,
    ShapeError,
    TailUnbounded,
)
from cnpcurv.tuples import _tail_certificate, default_horizon, op_norm

from conftest import jordan_block, random_commuting_tuple, random_nilpotent_tuple, random_unitary
from oracles import block_sum_reference, nilpotency_degree_reference, purity_reference


class TestLoadTuple:
    def test_scalar_zero(self):
        t = cc.load_tuple([np.array([[0.0]])])
        assert t.commutator_residual == 0.0
        assert t.d == 1 and t.dim_h == 1

    def test_noncommuting_rejected(self):
        t1 = np.array([[0, 1], [0, 0]], dtype=float)
        t2 = np.array([[0, 0], [1, 0]], dtype=float)
        with pytest.raises(CommutatorError):
            cc.load_tuple([t1, t2])

    def test_zero_pair(self):
        t = cc.load_tuple([np.zeros((3, 3)), np.zeros((3, 3))])
        assert t.commutator_residual == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cc.load_tuple([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_nonsquare(self):
        with pytest.raises(ShapeError):
            cc.load_tuple([np.zeros((2, 3))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.zeros((2, 2), dtype=complex)
        m[1, 0] = bad
        with pytest.raises(ShapeError, match="finite"):
            cc.load_tuple([np.zeros((2, 2)), m], eps_comm=1.0)

    def test_norm_with_overflowing_square_rejected(self):
        with pytest.raises(ShapeError, match="out of range"):
            cc.load_tuple([np.array([[0.0, 0.0], [1e308, 0.0]])])
        # the largest norm whose square is finite still loads
        cc.load_tuple([np.array([[0.0, 0.0], [1e154, 0.0]])])


def _diagonalisable(rng: np.random.Generator, d: int, n: int, rho: float) -> list[np.ndarray]:
    """R diag(lambda_i) R^-1 with a well-conditioned triangular R and
    |lambda| in [0.1, 0.6], scaled to sum ||T_i||^2 = rho: commuting,
    non-normal and nilpotent in no coordinate."""
    r = np.eye(n, dtype=complex) + 0.3 * np.triu(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1
    ) / np.sqrt(n)
    r_inv = np.linalg.inv(r)
    ops = []
    for _ in range(d):
        lam = rng.uniform(0.1, 0.6, n) * np.exp(2j * np.pi * rng.random(n))
        ops.append(r @ np.diag(lam) @ r_inv)
    scale = np.sqrt(rho / sum(op_norm(m) ** 2 for m in ops))
    return [scale * m for m in ops]


def _square_zero_ops(d: int) -> list[np.ndarray]:
    """Multiplication by z_1..z_d on C[z]/(z_1^2, ..., z_d^2), basis indexed
    by the subsets of {1..d}: commuting, nilpotent of degree d + 1."""
    ops = []
    for i in range(d):
        m = np.zeros((2**d, 2**d))
        for subset in range(2**d):
            if not subset >> i & 1:
                m[subset | 1 << i, subset] = 1.0
        ops.append(m)
    return ops


class TestNilpotency:
    def test_zero_on_c3(self):
        assert cc.nilpotency_degree(cc.load_tuple([np.zeros((3, 3))])) == 1

    def test_jordan3(self):
        assert cc.nilpotency_degree(cc.load_tuple([jordan_block(3)])) == 3

    def test_scalar_half(self):
        assert cc.nilpotency_degree(cc.load_tuple([np.array([[0.5]])])) is None

    def test_large_norm_does_not_overflow(self):
        # ||T||^m overflows a float for m = 3; the degree is found from T / ||T||
        t = cc.load_tuple([1e150 * jordan_block(3)])
        assert cc.nilpotency_degree(t) == 3
        assert cc.nilpotency_degree(cc.load_tuple([np.diag([1e150, 0.0])])) is None

    def test_walk_holds_at_most_two_degrees(self):
        # unimodular diagonal entries: no power vanishes, so the walk runs to
        # degree dimH; the whole power table would be about 27 MB
        d, dim = 3, 24
        rng = np.random.default_rng(5)
        t = cc.load_tuple([np.diag(np.exp(2j * np.pi * rng.random(dim))) for _ in range(d)])
        two_degrees = (q(d - 1, dim) + q(d - 1, dim - 1)) * 16 * dim * dim
        pure_powers = d * (dim + 1) * 16 * dim * dim
        tracemalloc.start()
        try:
            assert cc.nilpotency_degree(t) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * two_degrees
        assert peak < 1.5 * pure_powers

    def test_square_zero_coordinates(self):
        # T_i^2 = 0 for each i, yet T_1 T_2 T_3 != 0: the degree is set by
        # the mixed powers, not the pure ones
        t = cc.load_tuple(_square_zero_ops(3))
        assert cc.nilpotency_degree(t) == 4

    def test_contraction_stops_well_before_dim(self):
        # the d = 3, dimH 60 diagonalisable tuple of the series-tables
        # benchmark: no T_i is nilpotent, but every degree-26 power of T / c
        # is below 1e-12
        t = cc.load_tuple(_diagonalisable(np.random.default_rng(460), 3, 60, 0.6))
        assert cc.nilpotency_degree(t) == 26
        assert nilpotency_degree_reference(t) == 26

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["nilpotent", "contraction", "square-zero", "unimodular"]),
           seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
    def test_matches_level_table_walk(self, kind, seed, d):
        rng = np.random.default_rng(seed)
        if kind == "nilpotent":
            top = int(rng.integers(1, 4 if d == 2 else 3))
            t = random_nilpotent_tuple(rng, ("jordan", 1, None) if d == 1 else ("shift", d, top))
        elif kind == "contraction":
            # sum ||T_i||^2 = rho from 1e-6 to 0.9, then each T_i shrunk by
            # its own factor, so the T^alpha of one degree fall below 1e-12
            # at different degrees; about half reach it before dimH
            dim = int(rng.integers(2, 13))
            ops = _diagonalisable(rng, d, dim, float(10 ** rng.uniform(-6, -0.05)))
            t = cc.load_tuple([s * m for s, m in zip(10 ** rng.uniform(-4, 0, d), ops)])
        elif kind == "square-zero":
            u = random_unitary(rng, 2**d)
            scales = rng.uniform(0.1, 1, d)
            t = cc.load_tuple([s * u @ m @ u.conj().T for s, m in zip(scales, _square_zero_ops(d))])
        else:
            dim = int(rng.integers(1, 9))
            t = cc.load_tuple([np.diag(np.exp(2j * np.pi * rng.random(dim))) for _ in range(d)])
        expected = nilpotency_degree_reference(t)
        assert cc.nilpotency_degree(t) == expected
        if kind == "unimodular":
            assert expected is None

    def test_default_horizon_clamps(self):
        assert default_horizon(cc.load_tuple([np.zeros((2, 2))])) == 1
        assert default_horizon(cc.load_tuple([jordan_block(3)])) == 2


class TestDefectPackage:
    def test_zero_tuple_any_kernel(self):
        for name in ("drury-arveson", "dirichlet"):
            k = cc.preset(name, d=1, N=8)
            t = cc.load_tuple([np.zeros((4, 4))])
            pkg = cc.defect_package(t, k, n_op=3)
            assert np.allclose(pkg.delta, np.eye(4))
            assert pkg.rank_delta == 4
            assert op_norm(pkg.t_tilde) == 0.0

    def test_jordan3_szego_closed_form(self):
        k = cc.preset("szego", d=1, N=10)
        pkg = cc.defect_package(cc.load_tuple([jordan_block(3)]), k)
        assert pkg.n_op == 2
        # blocks with vanishing coefficient drop out: single block survives
        assert [a.entries for a in pkg.tilde_index_set] == [(1,)]
        assert np.allclose(pkg.delta @ pkg.delta, np.diag([1.0, 0, 0]))
        assert pkg.rank_delta == 1
        assert np.allclose(pkg.d_tilde @ pkg.d_tilde, np.diag([0.0, 0, 1.0]))
        assert pkg.rank_d == 1
        assert pkg.tail_bound == 0.0

    def test_scalar_half(self):
        k = cc.preset("szego", d=1, N=30)
        pkg = cc.defect_package(cc.load_tuple([np.array([[0.5]])]), k, n_op=20)
        assert pkg.delta[0, 0] == pytest.approx(np.sqrt(3) / 2)

    def test_identity_boundary_passes(self):
        k = cc.preset("drury-arveson", d=1, N=10)
        pkg = cc.defect_package(cc.load_tuple([np.eye(1)]), k, n_op=5)
        assert pkg.rank_delta == 0

    def test_not_contraction(self):
        k = cc.preset("drury-arveson", d=1, N=10)
        with pytest.raises(NotContraction):
            cc.defect_package(
                cc.load_tuple([np.sqrt(2) * np.eye(1)]), k, n_op=5
            )

    def test_tail_unbounded(self):
        k = cc.preset("dirichlet", d=1, N=10)
        with pytest.raises(TailUnbounded):
            cc.defect_package(cc.load_tuple([1.5 * np.eye(2)]), k, n_op=5)

    def test_tail_unbounded_before_powers_overflow(self):
        # rho = 1e300: the tail's rho^n would overflow a float for n >= 2
        k = cc.preset("dirichlet", d=1, N=10)
        with pytest.raises(TailUnbounded) as exc:
            cc.defect_package(cc.load_tuple([np.diag([1e150, 0.0])]), k, n_op=3)
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize(
        "ops, kernel, n_op",
        [
            ([1e150 * jordan_block(3)], "dirichlet", None),
            ([np.diag([1e150, 0.0])], "drury-arveson", 3),
            ([1e150 * jordan_block(2), np.zeros((2, 2))], "drury-arveson", None),
        ],
    )
    def test_not_contraction_before_powers_overflow(self, ops, kernel, n_op):
        # b_1 ||T||^2 = 1e300 (times b_1) already exceeds 1: rejected before
        # T^2 ~ 1e300 or S_N overflow, without a numpy warning
        k = cc.preset(kernel, d=len(ops), N=10)
        t = cc.load_tuple(ops)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotContraction) as exc:
                cc.defect_package(t, k, n_op=n_op)
        assert len(str(exc.value)) < 200

    def test_nonnilpotent_requires_horizon(self):
        k = cc.preset("szego", d=1, N=10)
        with pytest.raises(ValueError):
            cc.defect_package(cc.load_tuple([np.array([[0.5]])]), k)

    def test_identities_on_random_nilpotents(self, rng):
        for _ in range(12):
            t = random_nilpotent_tuple(rng)
            for name in ("drury-arveson", "dirichlet"):
                k = cc.preset(name, d=t.d, N=max(10, t.dim_h))
                pkg = cc.defect_package(t, k)
                assert pkg.delta_identity_residual <= 1e-10
                assert pkg.intertwine_residual <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(
            [(1, name) for name in ("szego", "drury-arveson", "dirichlet")]
            + [(d, name) for d in (2, 3) for name in ("drury-arveson", "dirichlet")]
        ),
        nilpotent=st.booleans(),
        n_op=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_s_n_equals_block_sum(self, case, nilpotent, n_op, seed):
        # the sigma walk's S_N against sum b_alpha T^alpha (T^alpha)*, and
        # its Delta^2 against the block row's Ttilde Ttilde*
        d, name = case
        rng = np.random.default_rng(seed)
        if nilpotent:
            structure = {1: ("jordan", 1, None), 2: ("shift", 2, 3), 3: ("shift", 3, 2)}[d]
            t = random_nilpotent_tuple(rng, structure)
        else:
            t = random_commuting_tuple(rng, d, int(rng.integers(1, 6)))
        k = cc.preset(name, d=d, N=10)
        pkg = cc.defect_package(t, k, n_op=n_op)
        gap = op_norm(pkg.s_n - block_sum_reference(t, k, n_op))
        assert gap <= 1e-13 * max(1.0, op_norm(pkg.s_n))
        assert pkg.delta_identity_residual <= 1e-12

    def test_s_n_stable_under_longer_horizon(self, rng):
        t = random_nilpotent_tuple(rng)
        k = cc.preset("dirichlet", d=t.d, N=20)
        n0 = default_horizon(t)
        p1 = cc.defect_package(t, k, n_op=n0)
        p2 = cc.defect_package(t, k, n_op=n0 + 5)
        assert op_norm(p1.s_n - p2.s_n) <= 1e-14


# The longer horizon N' the omitted defect-series tail is summed to.
_N_LONG = 200


@functools.cache
def _long_dirichlet(d: int) -> cc.KernelSpec:
    return cc.preset("dirichlet", d=d, N=_N_LONG)


def _omitted_tail(t, n_op: int) -> float:
    """||sum_{n_op < n <= N'} b_n sigma^n(I)||, sigma(X) = sum_i T_i X T_i*,
    with b from the dirichlet table at horizon N': the part of the defect
    series a package cut at n_op leaves out, summed far past its kernel
    horizon."""
    b = _long_dirichlet(t.d).b
    x = np.eye(t.dim_h, dtype=complex)
    tail = np.zeros_like(x)
    for n in range(1, _N_LONG + 1):
        x = sum(m @ x @ m.conj().T for m in t.ops)
        if n > n_op:
            tail += b[n] * x
    return op_norm(tail)


class TestTailCertificate:
    """_tail_certificate(t, k, n_op) bounds the omitted tail past n_op over
    the dirichlet kernel (b never vanishes), whose table stops at N = n_op +
    extra: from the b_n up to N and the b-mass left beyond it.  The tail is
    summed here to N' = 200, from sigma^n(I) itself."""

    # d = 1 diagonal: ||sigma^n(I)|| = rho^n exactly, so the certificate's
    # only slack is its residual-mass term.  Over rho <= 0.95 and
    # n_op < N <= 24 it stays within a factor 8.5 of the tail; 10 is the
    # stated factor.  The example has rho = 0.9025 and N = 12, where the b_n
    # past N and b_{n_op+1} alone are each far above rounding, so dropping
    # the residual mass or the first omitted degree falls below the tail.
    @settings(max_examples=40, deadline=None)
    @given(
        moduli=st.lists(st.floats(0.0, 0.97), min_size=1, max_size=4),
        n_op=st.integers(1, 6),
        extra=st.integers(1, 18),
    )
    @example(moduli=[0.95, 0.3], n_op=3, extra=9)
    def test_diagonal_d1_within_factor(self, moduli, n_op, extra):
        t = cc.load_tuple([np.diag(moduli).astype(complex)])
        cert = _tail_certificate(t, cc.preset("dirichlet", d=1, N=n_op + extra), n_op)
        tail = _omitted_tail(t, n_op)
        assert tail <= cert * (1 + 1e-12)
        assert cert <= 10 * tail

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        dim=st.integers(2, 4),
        n_op=st.integers(1, 6),
        extra=st.integers(1, 18),
    )
    def test_commuting_at_least_tail(self, seed, d, dim, n_op, extra):
        # rho = sum_i ||T_i||^2 = 0.7 < 1
        t = random_commuting_tuple(np.random.default_rng(seed), d, dim)
        cert = _tail_certificate(t, cc.preset("dirichlet", d=d, N=n_op + extra), n_op)
        assert _omitted_tail(t, n_op) <= cert * (1 + 1e-12)


class TestPurity:
    def test_jordan3_exact(self):
        k = cc.preset("szego", d=1, N=10)
        t = cc.load_tuple([jordan_block(3)])
        pkg = cc.defect_package(t, k)
        rep = cc.purity(pkg, k)
        assert rep.purity_residual <= 1e-14
        assert rep.exact

    def test_zero_tuple(self):
        k = cc.preset("dirichlet", d=1, N=8)
        t = cc.load_tuple([np.zeros((3, 3))])
        pkg = cc.defect_package(t, k, n_op=2)
        rep = cc.purity(pkg, k)
        assert rep.purity_residual == pytest.approx(0.0, abs=1e-15)

    def test_scalar_half_geometric_tail(self):
        k = cc.preset("szego", d=1, N=30)
        t = cc.load_tuple([np.array([[0.5]])])
        pkg = cc.defect_package(t, k, n_op=20)
        rep = cc.purity(pkg, k, n_op=20)
        # partial sum 1 - 4^{-(N+1)}
        assert rep.purity_residual == pytest.approx(0.25**21, rel=1e-6)
        assert rep.purity_residual < 1e-12
        assert not rep.exact

    @pytest.mark.parametrize("nilpotent", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sigma_recursion_matches_multi_index_sum(self, d, nilpotent):
        rng = np.random.default_rng(100 * d + nilpotent)
        names = ["drury-arveson", "dirichlet"] + (["szego"] if d == 1 else [])
        structure = {1: ("jordan", 1, None), 2: ("shift", 2, 3), 3: ("shift", 3, 2)}[d]
        for _ in range(3):
            if nilpotent:
                t = random_nilpotent_tuple(rng, structure)
            else:
                t = random_commuting_tuple(rng, d, int(rng.integers(2, 7)))
            for name in names:
                k = cc.preset(name, d=d, N=12)
                pkg = cc.defect_package(t, k, n_op=None if nilpotent else 6)
                for n_op in (pkg.n_op, pkg.n_op + 3):
                    rep = cc.purity(pkg, k, n_op=n_op)
                    ref = purity_reference(t, k, pkg, n_op)
                    assert op_norm(rep.p_n - ref) <= 1e-13 * op_norm(ref)


class TestConjugation:
    def test_identity(self):
        t = cc.load_tuple([jordan_block(3)])
        t2 = cc.conjugate_by_unitary(t, np.eye(3))
        assert np.allclose(t2.ops[0], t.ops[0])

    def test_sign_flip(self):
        t = cc.load_tuple([jordan_block(3)])
        u = np.diag([1.0, -1.0, 1.0])
        t2 = cc.conjugate_by_unitary(t, u)
        assert np.allclose(t2.ops[0], -t.ops[0] + 2 * np.diag(np.diag(t.ops[0])))

    def test_not_unitary(self):
        t = cc.load_tuple([jordan_block(3)])
        with pytest.raises(NotUnitary):
            cc.conjugate_by_unitary(t, np.diag([1.0, 2.0, 1.0]))

    def test_rank_invariance(self, rng):
        k = cc.preset("drury-arveson", d=1, N=10)
        t = cc.load_tuple([jordan_block(4)])
        pkg = cc.defect_package(t, k)
        for _ in range(5):
            u = random_unitary(rng, 4)
            t2 = cc.conjugate_by_unitary(t, u)
            pkg2 = cc.defect_package(t2, k)
            assert pkg2.rank_delta == pkg.rank_delta
            assert pkg2.rank_d == pkg.rank_d
            # singular values of Delta agree at the sqrt(eps) floor forced
            # by rooting a PSD matrix; the squared spectrum agrees to 1e-12
            sv1 = np.linalg.svd(pkg.delta, compute_uv=False)
            sv2 = np.linalg.svd(pkg2.delta, compute_uv=False)
            assert np.allclose(sv1, sv2, atol=1e-7)
            e1 = np.linalg.eigvalsh(pkg.s_n)
            e2 = np.linalg.eigvalsh(pkg2.s_n)
            assert np.allclose(e1, e2, atol=1e-12)
