"""Kernel tables: the b-recurrence, weight rows, and regularity trends."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cnpcurv.errors import CNPViolation, HorizonExceeded, PresetDomainError
from cnpcurv.kernel import (
    bn_from_an,
    from_coefficients,
    preset,
    regularity,
    weights,
)


def sympy_reciprocal_b(a_terms: list[Fraction], n_max: int) -> list[Fraction]:
    """Independent oracle: expand 1 - 1/sum(a_n t^n) symbolically."""
    import sympy as sp

    t = sp.symbols("t")
    s = sum(sp.Rational(x.numerator, x.denominator) * t**n for n, x in enumerate(a_terms))
    f = sp.series(1 - 1 / s, t, 0, n_max + 1).removeO()
    poly = sp.Poly(f, t)
    return [Fraction(str(poly.coeff_monomial(t**n))) for n in range(1, n_max + 1)]


class TestPresets:
    def test_drury_arveson(self):
        k = preset("drury-arveson", d=2, N=5)
        assert np.allclose(k.a, 1.0)
        assert k.b_exact[1] == 1 and all(x == 0 for x in k.b_exact[2:])
        assert k.b_support_bound == 1

    def test_dirichlet_exact_head(self):
        k = preset("dirichlet", d=1, N=3)
        assert k.a_exact == (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        assert k.b_exact[1:] == (Fraction(1, 2), Fraction(1, 12), Fraction(1, 24))

    def test_szego_is_one_dimensional(self):
        k = preset("szego", d=1, N=2)
        assert k.b_exact[1:] == (Fraction(1), Fraction(0))
        with pytest.raises(PresetDomainError):
            preset("szego", d=2, N=2)

    def test_unknown_preset(self):
        with pytest.raises(PresetDomainError):
            preset("bergman", d=1, N=2)

    def test_dirichlet_against_symbolic_inversion(self):
        n = 12
        k = preset("dirichlet", d=1, N=n)
        oracle = sympy_reciprocal_b([Fraction(1, j + 1) for j in range(n + 1)], n)
        assert list(k.b_exact[1:]) == oracle


    @pytest.mark.parametrize("name,d", [("szego", 1), ("drury-arveson", 2), ("dirichlet", 1)])
    def test_table_kept_between_calls(self, name, d):
        # each horizon after a larger one, then a larger one again, equals a
        # fresh recurrence over its own a-table
        for n in (40, 7, 1, 25, 64):
            k = preset(name, d=d, N=n)
            fresh = from_coefficients(list(k.a_exact), d=d, name=name, b_support_bound=k.b_support_bound)
            assert k.b_exact[1:] == tuple(bn_from_an(list(k.a_exact)))
            assert k.a.tobytes() == fresh.a.tobytes() and k.b.tobytes() == fresh.b.tobytes()
            assert k.a_exact == fresh.a_exact and k.b_exact == fresh.b_exact
            assert k.N == n and preset(name, d=d, N=n) is not k


class TestBnRecurrence:
    def test_constant_table(self):
        assert bn_from_an([1, 1, 1, 1]) == [1, 0, 0]

    def test_rejection(self):
        with pytest.raises(CNPViolation):
            bn_from_an([1, 2, 1])

    @pytest.mark.parametrize("table,message", [
        ([1, 1, 1, 1, Fraction(1, 2)], "b_4 = -1/2"),
        ([1.0, 1.0, 1.0, 1.0, 0.5], "b_4 = -0.5"),
    ])
    def test_rejection_after_zero_terms(self, table, message):
        # b_2 = b_3 = 0 drop out of the sum; the violation is still at n = 4
        with pytest.raises(CNPViolation, match=message):
            bn_from_an(table)

    @given(st.lists(st.integers(-1, 3), min_size=1, max_size=12))
    @settings(max_examples=60, derandomize=True)
    def test_first_violation_from_valid_a(self, raw):
        # b with zero and negative entries, a by convolution: bn_from_an
        # returns b, or raises at the first negative b_n with its value
        total = 2 * (1 + sum(map(abs, raw)))
        b = [Fraction(1, total)] + [Fraction(x, total) for x in raw]
        a = [Fraction(1)]
        for n in range(1, len(b) + 1):
            a.append(sum(b[j - 1] * a[n - j] for j in range(1, n + 1)))
        assume(all(x > 0 for x in a))
        negative = [n for n, bn in enumerate(b, start=1) if bn < 0]
        if not negative:
            assert bn_from_an(a) == b
            return
        with pytest.raises(CNPViolation, match=f"b_{negative[0]} = {b[negative[0] - 1]} "):
            bn_from_an(a)

    def test_requires_a0_one(self):
        with pytest.raises(ValueError):
            bn_from_an([2, 1])

    @pytest.mark.parametrize("table", [[1, float("nan"), 0.2], [1, float("inf")], [1, True, 1]])
    def test_non_finite_or_boolean_rejected(self, table):
        with pytest.raises(ValueError, match="finite numbers, not booleans"):
            bn_from_an(table)

    def test_float_tables_near_exact(self):
        k = preset("dirichlet", d=1, N=100)
        conv = [
            k.a[n] - sum(k.b[j] * k.a[n - j] for j in range(1, n + 1))
            for n in range(1, 101)
        ]
        assert max(abs(x) for x in conv) < 1e-12

    @given(
        st.lists(st.integers(0, 40), min_size=2, max_size=10).filter(
            lambda w: w[0] > 0  # a_1 = b_1 must stay positive
        )
    )
    @settings(max_examples=40, derandomize=True)
    def test_roundtrip_from_valid_b(self, raw):
        # random non-negative b with mass <= 1, a by convolution, recover b
        total = sum(raw) * 2
        b = [Fraction(x, total) for x in raw]
        a = [Fraction(1)]
        for n in range(1, len(b) + 1):
            a.append(sum(b[j - 1] * a[n - j] for j in range(1, n + 1)))
        assert bn_from_an(a) == b


class TestAccessors:
    def test_a_of_uses_multinomial(self):
        k = preset("dirichlet", d=2, N=4)
        assert k.a_of((1, 1)) == pytest.approx(2 / 3)  # a_2 * binom(2,(1,1))
        assert k.b_of((1, 0)) == pytest.approx(0.5)

    def test_b_of_rejects_zero(self):
        k = preset("dirichlet", d=2, N=4)
        with pytest.raises(ValueError):
            k.b_of((0, 0))

    def test_horizon_guard(self):
        k = preset("dirichlet", d=1, N=4)
        with pytest.raises(HorizonExceeded):
            k.a_of((5,))


class TestWeights:
    def test_drury_arveson_row_is_kronecker(self):
        k = preset("drury-arveson", d=2, N=10)
        row = weights(k, 6).w
        assert np.allclose(row, [0, 0, 0, 0, 0, 0, 1])

    def test_dirichlet_row_one(self):
        k = preset("dirichlet", d=1, N=5)
        assert weights(k, 1).w_exact == (Fraction(1, 2), Fraction(1, 2))

    def test_row_zero(self):
        k = preset("dirichlet", d=1, N=5)
        assert weights(k, 0).w_exact == (Fraction(1),)

    def test_row_sums_exactly_one(self):
        for name in ("drury-arveson", "dirichlet"):
            k = preset(name, d=1, N=30)
            for n in range(31):
                assert sum(weights(k, n).w_exact, Fraction(0)) == 1

    def test_row_sums_float_customs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            raw = rng.random(8)
            b = raw / (raw.sum() * 1.5)
            a = [1.0]
            for n in range(1, 51):
                a.append(
                    sum(b[j - 1] * a[n - j] for j in range(1, min(n, len(b)) + 1))
                )
            k = from_coefficients(a, d=2)
            for n in range(0, 51, 7):
                assert abs(weights(k, n).w.sum() - 1.0) < 1e-12

    def test_vanishing_head_bound(self):
        k = preset("dirichlet", d=1, N=60)
        kk = 3
        head_a = float(np.sum(k.a[: kk + 1]))
        prev = np.inf
        for n in range(10, 61, 10):
            head = float(np.sum(weights(k, n).w[: kk + 1]))
            tail_mass = 1.0 - k.b_partial_sum(n - kk)
            assert head <= head_a * tail_mass + 1e-12
            assert head <= prev + 1e-12
            prev = head

    def test_horizon_error(self):
        k = preset("dirichlet", d=1, N=4)
        with pytest.raises(HorizonExceeded):
            weights(k, 5)


class TestRegularity:
    def test_drury_arveson(self):
        rep = regularity(preset("drury-arveson", d=1, N=30))
        assert np.allclose(rep.ratio_tail, 1.0)
        assert rep.b_partial_sum == pytest.approx(1.0)
        assert rep.cnp_flag and rep.ratio_flag and rep.divergence_flag

    def test_dirichlet_trends(self):
        rep = regularity(preset("dirichlet", d=1, N=100))
        expected = [(n + 2) / (n + 1) for n in range(95, 100)]
        assert np.allclose(rep.ratio_tail, expected)
        assert rep.ratio_flag and rep.divergence_flag
        assert 0 < rep.b_partial_sum < 1

    def test_geometric_not_divergent(self):
        a = [Fraction(1, 2**n) for n in range(30)]
        rep = regularity(from_coefficients(a, d=1))
        assert rep.divergence_proxy <= 2.0
        assert not rep.divergence_flag
        assert not rep.ratio_flag
