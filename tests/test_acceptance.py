"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line so the suite can be
read as a checklist (`pytest -s tests/test_acceptance.py`).

Criterion 8 checks the finite-degree ordering monitor carried in every
report's convergence table against facts that hold at finite n: closed
forms for the normalized E-trace, averaged P-trace and dPsi partial sum on
symbols where they are known, agreement of the monitor with the dense
oracle, and the averaged P-quotient bracketed by the per-degree
E-quotients.  It does not assert that the averaged quotient
trace(X P_n)/q_d(n) dominates the per-degree quotient trace(X E_n)/q_{d-1}(n):
the first is a weighted mean of the per-degree quotients up to n, so it lags
the last one whenever they are still increasing, and the two meet only in
the limit.  The test docstring carries the worked counterexample.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

import cnpcurv as cc
from cnpcurv.comb import enumerate_up_to_degree, q, verify_id2
from cnpcurv.curvature import (
    DegreeProfile,
    curvature_integral,
    curvature_pure,
    curvature_weighted,
)
from cnpcurv.errors import CNPViolation, CommutatorError, NotContraction
from cnpcurv.fibredim import fd_report
from cnpcurv.kernel import bn_from_an, preset, weights
from cnpcurv.pipeline import RunSettings, run_curvature
from conftest import jordan_block, random_nilpotent_tuple, random_unitary
from oracles import (
    PolySpace,
    dpsi_trace_partial,
    multiplier_gram,
    trace_E,
    trace_P,
    weighted_degree_trace,
)

# machine-noise floor for Monte-Carlo comparisons: the integrands here are
# constant over the sphere by unitary invariance, so the sample spread (and
# with it stderr) collapses to rounding level; exact float equality of two
# differently-computed doubles is not a meaningful gate
MC_FLOOR = 1e-13


def report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"ACCEPT-{num:02d} {label}: {status}{suffix}")


PRESETS_D = [("szego", 1), ("drury-arveson", 1), ("drury-arveson", 2),
             ("drury-arveson", 3), ("dirichlet", 1), ("dirichlet", 2),
             ("dirichlet", 3)]


def nilpotent_suite(count: int):
    """Deterministic suite of random nilpotent tuples with kernels rotating
    over the presets (d <= 3, dimH <= 8)."""
    rng = np.random.default_rng(981113)
    suite = []
    while len(suite) < count:
        t = random_nilpotent_tuple(rng)
        name = ("szego", "drury-arveson", "dirichlet")[len(suite) % 3]
        if name == "szego" and t.d != 1:
            name = "drury-arveson"
        k = preset(name, d=t.d, N=max(12, t.dim_h + 2))
        suite.append((t, k))
    return suite


class TestCriterion1:
    def test_exact_combinatorics(self):
        start = time.monotonic()
        cases = 0
        ok = True
        for d in range(1, 5):
            for n in range(11):
                for beta in enumerate_up_to_degree(d, n):
                    res = verify_id2(d, n, beta)
                    ok &= res.equal
                    cases += 1
        assert cases == sum(q(d + 1, 10) for d in range(1, 5))

        for name in ("szego", "drury-arveson", "dirichlet"):
            k = preset(name, d=1, N=30)
            for n in range(31):
                row = weights(k, n).w_exact
                ok &= sum(row, Fraction(0)) == 1
        elapsed = time.monotonic() - start
        report(1, "exact-combinatorics", ok and elapsed < 30.0,
               f"{cases} id2 cases, {elapsed:.1f}s")
        assert ok
        assert elapsed < 30.0


class TestCriterion2:
    def test_kernel_layer(self):
        k = preset("dirichlet", d=1, N=12)
        exact_head = k.b_exact[1:4] == (
            Fraction(1, 2), Fraction(1, 12), Fraction(1, 24)
        )

        # independent oracle: symbolic reciprocal of sum t^n/(n+1)
        import sympy as sp

        t_sym = sp.symbols("t")
        s = sum(sp.Rational(1, n + 1) * t_sym**n for n in range(13))
        poly = sp.Poly(sp.series(1 - 1 / s, t_sym, 0, 13).removeO(), t_sym)
        oracle = tuple(
            Fraction(str(poly.coeff_monomial(t_sym**n))) for n in range(1, 13)
        )
        oracle_ok = tuple(k.b_exact[1:]) == oracle

        da = preset("drury-arveson", d=2, N=10)
        da_ok = da.b_exact[1] == 1 and all(x == 0 for x in da.b_exact[2:])

        k100 = preset("dirichlet", d=1, N=100)
        conv = max(
            abs(k100.a[n] - sum(k100.b[j] * k100.a[n - j] for j in range(1, n + 1)))
            for n in range(1, 101)
        )
        conv_ok = conv < 1e-12

        ok = exact_head and oracle_ok and da_ok and conv_ok
        report(2, "kernel-layer", ok, f"max convolution residual {conv:.2e}")
        assert ok


class TestCriterion3:
    def test_defect_identities_random_nilpotents(self):
        worst_id = worst_tw = 0.0
        for t, k in nilpotent_suite(100):
            pkg = cc.defect_package(t, k)
            worst_id = max(worst_id, pkg.delta_identity_residual)
            worst_tw = max(worst_tw, pkg.intertwine_residual)
        ok = worst_id <= 1e-10 and worst_tw <= 1e-10
        report(3, "defect-identities", ok,
               f"max residuals {worst_id:.2e} / {worst_tw:.2e}")
        assert ok


class TestCriterion4:
    def test_proposition_pn_cross_check(self):
        rng = np.random.default_rng(5511)
        worst = 0.0
        cases = 0
        while cases < 100:
            name, d = PRESETS_D[cases % len(PRESETS_D)]
            r = 1 + cases % 3
            n = 2 + cases % 7  # n <= 8
            k = preset(name, d=d, N=10)
            space = PolySpace(k, r=r, max_degree=n)
            x = space.random_hermitian(rng)
            aux1 = dpsi_trace_partial(space, x, n)
            via_weights = weighted_degree_trace(space, x, n)
            worst = max(worst, abs(aux1 - via_weights) / max(1.0, abs(aux1)))
            cases += 1
        ok = worst <= 1e-11
        report(4, "proposition-pn-cross-check", ok, f"max relative gap {worst:.2e}")
        assert ok


class TestCriterion5:
    def test_jordan_closed_forms(self):
        start = time.monotonic()
        radius = 0.999
        ok = True
        details = []
        for kdim in range(1, 7):
            t = cc.load_tuple([jordan_block(kdim)]) if kdim > 1 else cc.load_tuple(
                [np.zeros((1, 1))]
            )
            kern = preset("szego", d=1, N=max(16, kdim + 4))
            pkg = cc.defect_package(t, kern)
            series = cc.taylor(pkg, kern)

            nonzero = {
                key for key, a in series.coeffs.items() if np.abs(a).max() > 1e-10
            }
            single = nonzero == {(kdim,)}
            modulus = abs(series.coeffs[(kdim,)][0, 0])
            profile = DegreeProfile.build(pkg, kern, 12)
            dpsi = profile.series_value
            kw = curvature_weighted(profile, pkg.rank_delta)
            kw_ok = bool(np.all(np.abs(kw[kdim:]) <= 1e-10))
            est = curvature_integral(pkg, kern, radius=radius, n_samples=4000, seed=7)
            target = 1.0 - radius ** (2 * kdim)
            mc_ok = abs(est.estimate - target) <= 3 * est.stderr + MC_FLOOR
            fd = fd_report(pkg, kern).fd_eval
            pur = cc.purity(pkg, kern)
            kp = curvature_pure(pkg, series.is_polynomial, profile, fd, pur.purity_residual)

            case_ok = (
                single
                and abs(modulus - 1.0) <= 1e-10
                and abs(dpsi - 1.0) <= 1e-10
                and kw_ok
                and mc_ok
                and fd == 1
                and kp == 0
            )
            ok &= case_ok
            details.append(f"k={kdim}:{'ok' if case_ok else 'FAIL'}")
        elapsed = time.monotonic() - start
        ok &= elapsed < 10.0
        report(5, "jordan-closed-forms", ok, f"{' '.join(details)}, {elapsed:.1f}s")
        assert ok
        assert elapsed < 10.0


class TestCriterion6:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_tuple_dirichlet(self, m):
        n_theta = 60
        k = preset("dirichlet", d=1, N=n_theta + 4)
        t = cc.load_tuple([np.zeros((m, m))])
        pkg = cc.defect_package(t, k, n_op=n_theta)

        dpsi = DegreeProfile.build(pkg, k, n_theta=n_theta).series_value
        partial = m * k.b_partial_sum(n_theta)
        series_ok = abs(dpsi - partial) <= 1e-12

        fd = fd_report(pkg, k).fd_eval
        fd_ok = fd == m

        mc_ok = True
        for radius in (0.9, 0.999):
            est = curvature_integral(pkg, k, radius=radius, n_samples=2000, seed=7)
            target = m * (
                1.0 - sum(k.b[i] * radius ** (2 * i) for i in range(1, n_theta + 1))
            )
            mc_ok &= abs(est.estimate - target) <= 3 * est.stderr + MC_FLOOR * m

        ok = series_ok and fd_ok and mc_ok
        report(6, f"zero-tuple-dirichlet m={m}", ok,
               f"series gap {abs(dpsi - partial):.1e}")
        assert ok


class TestCriterion7:
    def test_pure_integrality(self):
        # the integer check runs where a terminating series exists, i.e. on
        # the finite-b-support kernels of the suite; slow-tail kernels have
        # no exact degree to evaluate at
        checked = 0
        ok = True
        for t, k in nilpotent_suite(100):
            if k.b_support_bound is None:
                continue
            res = run_curvature(t, k, RunSettings(n_samples=60, n_max=6, fd_samples=25))
            r = res.report
            ok &= abs(r.k_series - round(r.k_series)) <= 0.05
            ok &= r.k_pure == round(r.k_series) == 0
            checked += 1
        report(7, "pure-integrality", ok and checked >= 50, f"{checked} tuples")
        assert ok and checked >= 50


def jordan_closed_form(kdim: int, n: int) -> tuple[float, float, float]:
    """(E-quotient, averaged P-quotient, dPsi partial sum) at degree n for
    theta(z) = z^k over the Szego kernel, where M_theta M_theta* is the
    projection onto z^k H^2."""
    on = float(n >= kdim)
    return on, max(0, n - kdim + 1) / (n + 1), on


def linear_da2_closed_form(n: int) -> tuple[float, float, float]:
    """The same triple for theta(z) = (z_1 + i z_2)/2 over Drury-Arveson,
    d = 2: trace(X E_n) = (n+1)/4 for n >= 1, by unitary invariance and
    M_z1 M_z1* + M_z2 M_z2* = 1 - E_0."""
    on = 0.25 * (n >= 1)
    return on, 0.25 * (1 - 2 / ((n + 1) * (n + 2))), on


class TestCriterion8:
    def test_ordering_monitor_as_stated(self):
        """Finite-n ordering monitor on the polynomial-symbol suite.

        Checked at every n <= 10:
          * the dense oracle (multiplier Gram matrix, E/P-traces, dPsi
            partial sums) matches closed forms to 1e-12;
          * the monitor rows of run_curvature (coefficient route) match the
            dense oracle to 1e-10 on the Jordan symbols;
          * the normalized E-trace dominates the dPsi partial sum (a theorem
            for non-increasing coefficient tables);
          * the averaged P-quotient, a weighted mean of the E-quotients up
            to n, lies between their minimum and maximum, and once the
            E-quotients stop rising the lag e_n - p_n is positive and
            non-increasing.

        The literal chain "averaged P-quotient dominates the per-degree
        E-quotient" is not asserted because it is false at finite n: for the
        cubed-coordinate symbol over the constant-coefficient kernel,
        trace(X P_n)/q_1(n) = (n-2)/(n+1) while trace(X E_n)/q_0(n) = 1 for
        all n >= 3 (0.25 against 1 at n = 3), a gap of 3/(n+1).  The two
        sequences meet only in the limit.
        """
        n_top = 10
        # (label, kernel, coefficients, closed form, tuple for the monitor,
        #  degree from which the E-quotients are constant)
        suite = []
        for kdim in (3, 4, 5):
            kern = preset("szego", d=1, N=16)
            t = cc.load_tuple([jordan_block(kdim)])
            pkg = cc.defect_package(t, kern)
            series = cc.taylor(pkg, kern)
            suite.append((f"jordan-{kdim}/szego", kern, series.coeffs,
                          lambda n, kdim=kdim: jordan_closed_form(kdim, n), t, kdim))
        kern2 = preset("drury-arveson", d=2, N=12)
        coeffs_d2 = {
            (1, 0): np.array([[0.5]], dtype=complex),
            (0, 1): np.array([[0.5j]], dtype=complex),
        }
        suite.append(("linear/drury-arveson-d2", kern2, coeffs_d2,
                      linear_da2_closed_form, None, 1))

        closed_err = 0.0
        closed_worst = None
        monitor_gap = 0.0
        monitor_rows_ok = True
        second_ok = True
        bracket_violations = []
        lag_violations = []
        for label, kern, coeffs, closed, t, flat_from in suite:
            space, x = multiplier_gram(kern, coeffs, max_degree=n_top)
            oracle = []
            for n in range(n_top + 1):
                t_p = trace_P(space, x, n) / q(kern.d, n)
                t_e = trace_E(space, x, n) / q(kern.d - 1, n)
                dpsi = dpsi_trace_partial(space, x, n)
                oracle.append((t_e, t_p, dpsi))
                err = max(abs(a - b) for a, b in zip((t_e, t_p, dpsi), closed(n)))
                if err > closed_err:
                    closed_err, closed_worst = err, (label, n)
                second_ok &= t_e >= dpsi - 1e-10
                seen = [e for e, _, _ in oracle]
                if not (min(seen) - 1e-12 <= t_p <= max(seen) + 1e-12):
                    bracket_violations.append((label, n, t_p, min(seen), max(seen)))

            lags = [e - p for e, p, _ in oracle[flat_from:]]
            if min(lags) <= 1e-10 or any(b > a + 1e-12 for a, b in zip(lags, lags[1:])):
                lag_violations.append((label, lags))

            if t is not None:
                res = run_curvature(t, kern, RunSettings(n_samples=60, n_max=n_top, fd_samples=25))
                rows = res.report.convergence
                monitor_rows_ok &= [row["n"] for row in rows] == list(range(n_top + 1))
                for row, (t_e, t_p, dpsi) in zip(rows, oracle):
                    monitor_gap = max(
                        monitor_gap,
                        abs(row["t_e_normalized"] - t_e),
                        abs(row["t_p_normalized"] - t_p),
                        abs(row["dpsi_partial"] - dpsi),
                    )

        closed_ok = closed_err <= 1e-12
        monitor_ok = monitor_rows_ok and monitor_gap <= 1e-10
        ok = (closed_ok and monitor_ok and second_ok
              and not bracket_violations and not lag_violations)
        report(8, "ordering-monitor", ok,
               f"closed-form err {closed_err:.1e}, monitor/oracle gap {monitor_gap:.1e}")
        assert closed_ok, (
            f"dense oracle misses a closed form by {closed_err:.2e} at {closed_worst}"
        )
        assert monitor_ok, (
            f"convergence rows disagree with the dense oracle by {monitor_gap:.2e} "
            f"(row degrees complete: {monitor_rows_ok})"
        )
        assert second_ok, "E-trace vs dPsi partial ordering failed"
        assert not bracket_violations, (
            "averaged P-quotient outside the range of the E-quotients: "
            f"{bracket_violations[:3]}"
        )
        assert not lag_violations, (
            f"lag e_n - p_n not positive and non-increasing: {lag_violations[:1]}"
        )


class TestCriterion9:
    def test_unitary_invariance(self):
        rng = np.random.default_rng(771)
        bases = [
            (cc.load_tuple([jordan_block(4)]), preset("szego", d=1, N=12)),
            (random_nilpotent_tuple(rng, structure=("shift", 2, 3)),
             preset("drury-arveson", d=2, N=12)),
        ]
        worst = 0.0
        fd_ok = True
        trials = 0
        for t, k in bases:
            pkg = cc.defect_package(t, k)
            k_series = pkg.rank_delta - DegreeProfile.build(pkg, k).series_value
            fd = fd_report(pkg, k).fd_eval
            for _ in range(10):
                u = random_unitary(rng, t.dim_h)
                t2 = cc.conjugate_by_unitary(t, u)
                pkg2 = cc.defect_package(t2, k)
                k2 = pkg2.rank_delta - DegreeProfile.build(pkg2, k).series_value
                worst = max(worst, abs(k2 - k_series))
                fd_ok &= fd_report(pkg2, k).fd_eval == fd
                trials += 1
        ok = worst <= 1e-10 and fd_ok and trials == 20
        report(9, "unitary-invariance", ok, f"max K drift {worst:.2e}, {trials} trials")
        assert ok


class TestCriterion10:
    def test_rejection_paths(self):
        t1 = np.array([[0.0, 0.4], [0.0, 0.0]])
        t2 = np.array([[0.0, 0.0], [0.4, 0.0]])
        outcomes = []
        for _ in range(2):  # deterministic: same error both times
            with pytest.raises(CommutatorError):
                cc.load_tuple([t1, t2])
            outcomes.append("CommutatorError")

            k = preset("drury-arveson", d=1, N=8)
            with pytest.raises(NotContraction):
                cc.defect_package(cc.load_tuple([np.sqrt(2) * np.eye(1)]), k, n_op=4)
            outcomes.append("NotContraction")

            with pytest.raises(CNPViolation):
                bn_from_an([1, 2, 1])
            outcomes.append("CNPViolation")
        ok = outcomes == ["CommutatorError", "NotContraction", "CNPViolation"] * 2
        report(10, "rejection-paths", ok)
        assert ok
