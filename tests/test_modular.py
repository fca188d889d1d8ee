"""Eta, Weber, the tiling parameter, j, q-expansions, and the CM table."""

import math
import os
import subprocess
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_add, mpf_sub, round_nearest

from dessinry import modular
from dessinry.cm_values import CM_ROWS, cm_value, eval_radical
from dessinry.errors import DessinryError
from dessinry.modular import (
    ModularValue,
    UpperHalfPoint,
    ap,
    eta,
    integrality_check,
    j_from_lambda_star,
    j_oracle,
    lambda_star,
    qseries_eval,
    weber_f,
    weber_f1,
    weber_f2,
)
from dessinry.qseries import QSeries, lambda_star_qseries

I = mpmath.mpc(0, 1)


def weber_product(tau, kind):
    """A Weber function from its own q-product, at the ambient precision:

    kind 'f':  q^{-1/48} prod (1 + q^{n-1/2})
    kind 'f1': q^{-1/48} prod (1 - q^{n-1/2})
    kind 'f2': sqrt(2) q^{1/24} prod (1 + q^n)

    with enough factors that the omitted tail is below 1e-60.
    """
    tau = mpmath.mpc(tau)
    q = mpmath.exp(2 * mpmath.pi * I * tau)
    q2 = mpmath.exp(mpmath.pi * I * tau)
    N = max(16, int(-60 / mpmath.log10(abs(q))) + 2)
    if kind == "f2":
        pref, zn, sign = mpmath.sqrt(2) * mpmath.exp(mpmath.pi * I * tau / 12), q, 1
    else:
        pref, zn, sign = 1 / mpmath.exp(mpmath.pi * I * tau / 24), q2, 1 if kind == "f" else -1
    prod = mpmath.mpf(1)
    for _ in range(N):
        prod *= 1 + sign * zn
        zn *= q
    return pref * prod


def eta_product_by_mpc(q, N):
    """prod_{n<=N} (1 - q^n) in mpmath's complex arithmetic at the ambient
    precision: the loop whose every bit modular._eta_product reproduces."""
    prod = mpmath.mpf(1)
    qn = q
    for _ in range(N):
        prod *= 1 - qn
        qn *= q
    return prod


def signed(x):
    """A raw mpf as modular._add's (signed odd mantissa or 0, exponent)."""
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def _poly_mul(a, b, N):
    out = [0] * (N + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > N:
            continue
        for j in range(min(len(b), N + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _poly_inv(a, N):
    assert a[0] == 1
    inv = [1] + [0] * N
    for k in range(1, N + 1):
        inv[k] = -sum(a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return inv


def qseries_by_power_series(N):
    """lambda* coefficients to order N as (numerator * 1/denominator)^8 of
    truncated power series, independent of the shipped divisor-sum
    recurrence."""
    num = [1] + [0] * N
    den = [1] + [0] * N
    for k in range(1, N + 1, 2):
        num = _poly_mul(num, [1] + [0] * (k - 1) + [1], N)
        den = _poly_mul(den, [1] + [0] * (k - 1) + [-1], N)
    base = _poly_mul(num, _poly_inv(den, N), N)
    sq = _poly_mul(base, base, N)
    quad = _poly_mul(sq, sq, N)
    return _poly_mul(quad, quad, N)


def delta_by_eta(tau, tol):
    """Discriminant (2 pi)^12 eta(tau)^24 from the library's eta product, in
    one pass, with a bound of at most tol * |value|."""
    tau = UpperHalfPoint(tau).tau

    def compute(rel):
        ev, eb = modular._eta(tau, rel / 48)
        val = (2 * mpmath.pi) ** 12 * modular._ipow(ev, 24)
        return val, abs(val) * modular._rel_err((eb / abs(ev), 24))

    return ModularValue(*modular._pass(compute, tol, "tau=%s" % tau))


class TestUpperHalfPoint:
    def test_rejects_lower_half(self):
        for bad in (1.0, -2j, 3 - 0.5j):
            with pytest.raises(DessinryError) as exc:
                UpperHalfPoint(bad)
            assert exc.value.code == "invalid-parameter"

    def test_rejects_non_finite(self):
        nan, inf = float("nan"), float("inf")
        for bad in (complex(nan, 1), complex(0, inf), complex(inf, 1)):
            with pytest.raises(DessinryError) as exc:
                UpperHalfPoint(bad)
            assert exc.value.code == "invalid-parameter"

    def test_q_powers_consistent(self):
        p = UpperHalfPoint(0.3 + 1.7j)
        with mp.workdps(30):
            assert abs(p.q2 ** 2 - mp.exp(2j * mp.pi * p.tau)) < 1e-28


class TestEta:
    def test_value_at_i(self):
        got = eta(1j, tol=1e-30)
        with mp.workdps(40):
            want = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** mpmath.mpf("0.75"))
            assert abs(got.value - want) < 1e-28
        assert got.trunc_bound <= 1e-30

    def test_value_at_2i(self):
        got = eta(2j, tol=1e-30)
        with mp.workdps(40):
            want = mpmath.gamma(mpmath.mpf(1) / 4) / (2 ** mpmath.mpf("1.375") * mpmath.pi ** mpmath.mpf("0.75"))
            assert abs(got.value - want) < 1e-28

    def test_shift_by_one(self):
        with mp.workdps(40):
            tau = mpmath.mpc(mpmath.mpf("0.2"), mpmath.mpf("1.1"))
            lhs = eta(tau + 1, 1e-30).value
            rhs = mpmath.exp(mpmath.pi * I / 12) * eta(tau, 1e-30).value
            assert abs(lhs - rhs) < 1e-27

    def test_inversion(self):
        tau = mpmath.mpc(0.1, 1.3)
        with mp.workdps(40):
            lhs = eta(-1 / tau, 1e-30).value
            rhs = mpmath.sqrt(-I * tau) * eta(tau, 1e-30).value
            assert abs(lhs - rhs) < 1e-27

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-1, 1), st.floats(0.005, 3), st.sampled_from([1e-12, 1e-30, 1e-200]))
    @example(0.0, 0.7, 1e-30)  # q is real: every imaginary part is zero
    @example(0.5, 0.0025, 1e-12)  # Im q is a rounding residue: the sticky shortcut runs
    @example(0.0, 1e100, 1e-200)  # q = 2^(-9e100): gaps no shift can span
    def test_product_is_the_mpc_loops_bit_for_bit(self, re_tau, im_tau, rel):
        # _eta's own q, N and precision; each product's raw tuples must match.
        seen, real = [], modular._eta_product

        def both(q, N):
            got = real(q, N)
            assert got._mpc_ == eta_product_by_mpc(q, N)._mpc_
            seen.append(N)
            return got

        with mp.workdps(modular._dps_for(mpmath.mpf(rel))), pytest.MonkeyPatch.context() as patch:
            patch.setattr(modular, "_eta_product", both)
            modular._eta(mpmath.mpc(re_tau, im_tau), rel)
        assert seen

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(2 ** 1500), 2 ** 1500),
        st.integers(-3000, 3000),
        st.integers(-(2 ** 1500), 2 ** 1500),
        st.integers(-3000, 3000),
        st.sampled_from([2, 53, 113, 700]),
    )
    @example(2 ** 53 + 1, 0, 0, 0, 53)  # a tie, rounded down to even
    @example(2 ** 53 + 3, 0, 0, 0, 53)  # a tie, rounded up to even
    @example(1, 53, 1, 0, 53)  # a sum that ties
    @example(0, 0, 5, -3, 2)  # zero operands
    @example(5, -3, 0, 0, 2)
    @example(0, 0, 0, 0, 53)
    @example(3, 7, -3, 7, 53)  # exact cancellation
    @example(1, 0, 1, -200, 53)  # an addend far below the other
    @example((2 ** 52 << 147) + (1 << 146) - 1, 0, 2 ** 120 - 1, -101, 53)  # the shortcut, not exact rounding, decides
    @example((2 ** 52 << 147) + (1 << 146) - 1, 0, 2 ** 120 - 1, -100, 53)  # a gap of 100 is summed exactly
    @example(1, 0, 1, -(10 ** 100), 53)  # a gap no shift can span
    def test_add_rounds_as_mpf_add_and_mpf_sub(self, m, e, n, f, prec):
        s, t = from_man_exp(m, e), from_man_exp(n, f)
        (sm, se), (tm, te) = signed(s), signed(t)
        assert modular._add(sm, se, tm, te, prec) == signed(mpf_add(s, t, prec, round_nearest))
        assert modular._add(sm, se, -tm, te, prec) == signed(mpf_sub(s, t, prec, round_nearest))

    def test_tiny_imaginary_part_exhausts_budget(self):
        with pytest.raises(DessinryError) as exc:
            eta(1e-5j, tol=1e-12)
        assert exc.value.code == "tolerance-unreachable"

    @pytest.mark.parametrize(
        "fn,arg,named",
        [
            (eta, 0.3 + 1e-5j, "tau=(0.3 + 1.0e-5j)"),
            (weber_f, 0.3 + 1e-5j, "tau=(0.3 + 1.0e-5j)"),
            (weber_f1, 0.3 + 1e-5j, "tau=(0.3 + 1.0e-5j)"),
            (lambda_star, 0.4 + 1e-7j, "tau=(0.4 + 1.0e-7j)"),
            (j_oracle, 0.3 + 1e-5j, "tau=(0.3 + 1.0e-5j)"),
            (ap, 1e-6, "t=1e-06"),
        ],
        ids=["eta", "weber_f", "weber_f1", "lambda_star", "j_oracle", "ap"],
    )
    def test_unreachable_names_the_callers_argument(self, fn, arg, named):
        # weber_f fails at eta((tau+1)/2), weber_f1 at eta(tau/2); lambda_star
        # and ap fail at the working precision of their reduced point, near
        # the cusp 2/5 and 0: Im tau' = 4e5 and 1e6, so 2 pi Im tau' / ln 10
        # digits.  The diagnostic names what the caller passed, not that point.
        with pytest.raises(DessinryError) as exc:
            fn(arg)
        assert exc.value.code == "tolerance-unreachable"
        if fn in (lambda_star, ap):
            assert exc.value.message == "working precision needs more than 480000 digits at " + named
        else:
            assert exc.value.message == "eta product needs more than 400000 terms at " + named

    def test_discriminant_from_eta(self):
        with mp.workdps(40):
            ev = eta(1j, 1e-30).value
            want = (2 * mpmath.pi) ** 12 * ev ** 24
            got = delta_by_eta(1j, 1e-25)
            assert abs(got.value - want) < 1e-20
            assert got.trunc_bound < 1e-25 * abs(got.value) * 100

    @pytest.mark.parametrize("tol", [1e-150, 1e-200])
    def test_discriminant_far_up_the_cusp(self, tol):
        # At Im tau = 10^6 the product prod (1 - q^n)^24 is 1 - O(e^{-2 pi 10^6}),
        # so Delta(tau) = (2 pi)^12 q to far beyond tol; the 24th power runs
        # at more than 417 bits, where a power through exp(24 log z) is off.
        tau = 0.3 + 1e6j
        got = delta_by_eta(tau, tol)
        with mp.workdps(300):
            want = (2 * mpmath.pi) ** 12 * mpmath.exp(2 * mpmath.pi * I * mpmath.mpc(tau))
            assert abs(got.value - want) <= got.trunc_bound <= tol * abs(want) * 1.01


class TestWeber:
    def test_eighth_powers_at_i(self):
        with mp.workdps(40):
            assert abs(weber_f(1j, 1e-25).value ** 8 - 4) < 1e-20
            assert abs(weber_f1(1j, 1e-25).value ** 8 - 2) < 1e-20
            assert abs(weber_f2(1j, 1e-25).value ** 8 - 2) < 1e-20

    def test_product_relation(self):
        tau = 0.25 + 1.05j
        with mp.workdps(40):
            prod = weber_f(tau, 1e-25).value * weber_f1(tau, 1e-25).value * weber_f2(tau, 1e-25).value
            assert abs(prod - mpmath.sqrt(2)) < 1e-20

    def test_eighth_power_sum_relation(self):
        tau = 1.6j
        with mp.workdps(40):
            f8 = weber_f(tau, 1e-25).value ** 8
            f18 = weber_f1(tau, 1e-25).value ** 8
            f28 = weber_f2(tau, 1e-25).value ** 8
            assert abs(f8 - f18 - f28) < 1e-19

    def test_quotient_and_product_paths_agree(self):
        for tau in (1.2j, 0.3 + 1.4j, -0.2 + 0.9j):
            with mp.workdps(40):
                for a, kind in ((weber_f, "f"), (weber_f1, "f1"), (weber_f2, "f2")):
                    assert abs(a(tau, 1e-22).value - weber_product(tau, kind)) < 1e-20


# One tau per class of gamma mod 2 (in _CLASSES order), each with Im tau < sqrt(3)/2.
SIX_CLASSES = [0.5 + 0.1j, 0.4 + 0.1j, 0.2 + 0.1j, 0.35 + 0.1j, 0.75 + 0.1j, 0.1 + 0.1j]
FAULT_CASES = [pytest.param(lambda_star, 0.1 + 1.3j, 0.1 + 1.3j, w, id=w) for w in ("shift", "half", "tau")] + [
    pytest.param(fn, arg, moved, w, id="%s-%s-%s" % (fn.__name__, arg, w))
    for fn, arg, moved in ((lambda_star, 0.1 + 0.3j, 3j), (ap, 0.3, 1j / 0.3))
    for w in ("shift", "half", "double", "tau")
]


class TestLambdaStar:
    def test_value_at_i(self):
        got = lambda_star(1j, 1e-20)
        assert abs(got.value - 2) < 1e-18

    def test_value_at_i_root2(self):
        with mp.workdps(40):
            want = (1 + mpmath.sqrt(2)) / 2
            got = lambda_star(I * mpmath.sqrt(2), 1e-25)
            assert abs(got.value - want) < 1e-22

    def test_ap_wrapper(self):
        with mp.workdps(40):
            assert abs(ap(1.0, 1e-20).value - 2) < 1e-18
        with pytest.raises(DessinryError) as exc:
            ap(-3.0)
        assert exc.value.code == "invalid-parameter"
        with pytest.raises(DessinryError):
            ap(1 + 1j)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DessinryError) as exc:
                ap(bad)
            assert exc.value.code == "invalid-parameter"


    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(math.log(0.02), math.log(50)).map(math.exp),
        st.floats(-30, -8).map(lambda e: 10.0 ** e),
    )
    @example(0.05, 1e-12)
    @example(0.06, 1e-12)
    @example(0.01, 1e-12)
    @example(0.005, 1e-12)
    @example(7.0, 1e-12)
    def test_error_bound_holds_against_theta_quotient(self, t, tol):
        # lambda*(it) = theta3(q)^4 / theta4(q)^4 with nome q = e^{-pi t}: no
        # eta product involved.  2/t digits cover both |lambda*| ~ e^{pi/t}
        # and the cancellation in theta4 near the cusp.
        got = ap(t, tol)
        with mp.workdps(int(-math.log10(tol) + 2 / t) + 30):
            q = mpmath.exp(-mpmath.pi * mpmath.mpf(t))
            want = mpmath.jtheta(3, 0, q) ** 4 / mpmath.jtheta(4, 0, q) ** 4
            assert abs(got.value - want) <= got.trunc_bound <= tol

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1, 1), st.floats(0.02, 2), st.floats(-30, -8).map(lambda e: 10.0 ** e))
    @example(0.1, 1.3, 1e-12)  # Im tau >= sqrt(3)/2: gamma is the identity
    @example(0.5, 0.1, 1e-12)  # gamma = 1 mod 2, another element of Gamma(2): f^8 / f1^8
    @example(0.4, 0.1, 1e-12)  # f1^8 / f^8
    @example(0.2, 0.1, 1e-12)  # f^8 / f2^8
    @example(0.35, 0.1, 1e-12)  # f2^8 / f^8
    @example(0.75, 0.1, 1e-12)  # -f2^8 / f1^8
    @example(0.1, 0.1, 1e-12)  # -f1^8 / f2^8
    @example(0.0, 0.02, 1e-30)  # lambda* about e^{50 pi} / 16
    def test_lambda_star_bound_holds_against_theta_quotient(self, re_tau, im_tau, tol):
        # theta3^4 / theta4^4 at the nome e^{i pi tau} of the caller's tau, not
        # of the reduced point.  3 / Im tau digits cover |lambda*| up to about
        # e^{pi / Im tau} and theta4's cancellation near a cusp.
        got = lambda_star(complex(re_tau, im_tau), tol)
        with mp.workdps(int(-math.log10(tol) + 3 / im_tau) + 30):
            q = mpmath.exp(mpmath.pi * I * mpmath.mpc(re_tau, im_tau))
            want = mpmath.jtheta(3, 0, q) ** 4 / mpmath.jtheta(4, 0, q) ** 4
            assert abs(got.value - want) <= got.trunc_bound <= tol

    @pytest.mark.parametrize("t,tol", [(1.6e-3, "1e-12"), (2.5e-3, "1e-100"), (0.8, "1e-3000")])
    def test_ap_accepts_what_the_eta_budget_accepted(self, t, tol):
        # Each of these fit the former limit of 400000 eta factors at the
        # caller's point, which stopped ap at about t = 1.6e-3 for tol 1e-12.
        tol = mpmath.mpf(tol)
        got = ap(t, tol)
        with mp.workdps(int(-mpmath.log10(tol) + 2 / t) + 30):
            q = mpmath.exp(-mpmath.pi * mpmath.mpf(t))
            want = mpmath.jtheta(3, 0, q) ** 4 / mpmath.jtheta(4, 0, q) ** 4
            assert abs(got.value - want) <= got.trunc_bound <= tol

    @pytest.mark.parametrize("fn,arg,moved,which", FAULT_CASES)
    def test_a_fault_in_any_eta_is_a_mismatch(self, monkeypatch, fn, arg, moved, which):
        # The Weber quotient never uses eta(tau'); the discriminant side does.
        # At tau = 0.1 + 1.3j, gamma is the identity; 0.1 + 0.3j and 0.3i move
        # to 3i and i / 0.3, where the quotients -f1^8 / f2^8 and f^8 / f2^8
        # add eta(2 tau').
        target = {"shift": (moved + 1) / 2, "half": moved / 2, "double": 2 * moved, "tau": moved}[which]
        real_eta, hit = modular._eta, []

        def faulty_eta(z, rel):
            val, bound = real_eta(z, rel)
            if abs(z - target) < 1e-9:
                hit.append(z)
                return val * (1 + 1e-6), bound
            return val, bound

        monkeypatch.setattr(modular, "_eta", faulty_eta)
        with pytest.raises(DessinryError) as exc:
            fn(arg, 1e-12)
        assert hit and exc.value.code == "expression-mismatch"

    @pytest.mark.parametrize(
        "fn,arg", [(ap, t) for t in (0.005, 0.07, 0.5)] + [(lambda_star, tau) for tau in SIX_CLASSES + [-0.45 + 0.02j]]
    )
    def test_every_eta_runs_in_the_fundamental_domain(self, monkeypatch, fn, arg):
        # At most four points, (tau' + 1) / 2, tau' / 2, 2 tau' and tau', each
        # with Im >= sqrt(3) / 4, where x = |q| <= e^{-pi sqrt(3) / 2}: a few
        # factors per digit, where the caller's point needs 1 / (pi Im tau).
        seen, real_eta = [], modular._eta

        def recording(z, rel):
            seen.append(complex(z))
            return real_eta(z, rel)

        monkeypatch.setattr(modular, "_eta", recording)
        fn(arg, 1e-12)
        assert 3 <= len(set(seen)) <= 4
        assert all(z.imag >= math.sqrt(3) / 4 for z in seen)

    def test_ap_far_up_the_cusp(self):
        # ap(t) - 1 is about 16 e^{-pi t}: nothing at t = 10^100.
        got = ap(1e100)
        assert abs(got.value - 1) <= got.trunc_bound <= 1e-12

    def test_ap_takes_t_at_its_own_precision(self):
        with mp.workdps(60):
            t = mpmath.sqrt(2) / 7
            q = mpmath.exp(-mpmath.pi * t)
            want = mpmath.jtheta(3, 0, q) ** 4 / mpmath.jtheta(4, 0, q) ** 4
        got = ap(t, 1e-30)
        with mp.workdps(60):
            assert abs(got.value - want) <= got.trunc_bound <= 1e-30


class TestJ:
    def test_j_from_lambda_star_at_two(self):
        assert j_from_lambda_star(2.0) == pytest.approx(1728.0)

    def test_poles(self):
        for x in (0.0, 1.0, 1e-13):
            with pytest.raises(DessinryError) as exc:
                j_from_lambda_star(x)
            assert exc.value.code == "pole-at-0-or-1"

    @given(st.floats(min_value=1.1, max_value=50).map(lambda v: round(v, 6)))
    def test_inversion_symmetry(self, x):
        assert j_from_lambda_star(1.0 / x) == pytest.approx(j_from_lambda_star(x), rel=1e-9)

    def test_oracle_at_i(self):
        got = j_oracle(1j, 1e-20)
        assert abs(got.value - 1728) < 1e-15

    def test_oracle_at_i_root2(self):
        with mp.workdps(40):
            got = j_oracle(I * mpmath.sqrt(2), 1e-20)
            assert abs(got.value - 8000) < 1e-14

    def test_oracle_heegner_163(self):
        with mp.workdps(60):
            tau = (1 + I * mpmath.sqrt(163)) / 2
            got = j_oracle(tau, 1e-25)
            want = -(640320 ** 3)
            assert abs(got.value - want) < abs(mpmath.mpf(want)) * 1e-30

    def test_paths_agree_on_cm_points(self):
        for n in (1, 2, 3, 5):
            with mp.workdps(40):
                t = mpmath.sqrt(n)
                via_lambda = j_from_lambda_star(ap(t, 1e-22).value)
                direct = j_oracle(UpperHalfPoint(I * t), 1e-22).value
                assert abs(via_lambda - direct) <= 1e-12 * max(1, abs(direct))


class TestQSeries:
    HEAD = (1, 16, 128, 704, 3072, 11488, 38400, 117632, 335872)

    def test_head_coefficients(self):
        series = lambda_star_qseries(8)
        assert series.coefficients == self.HEAD
        assert series.order == 8

    def test_two_paths_agree(self):
        for order in (0, 1, 50, 400):
            assert list(lambda_star_qseries(order).coefficients) == qseries_by_power_series(order)

    @pytest.mark.parametrize("order", [True, False, -1, 2.0, "3"])
    def test_rejects_bad_order(self, order):
        # A bool is an int to isinstance; True would be order 1.
        with pytest.raises(DessinryError) as exc:
            lambda_star_qseries(order)
        assert exc.value.code == "invalid-parameter"

    def test_coefficients_are_positive_ints(self):
        for c in lambda_star_qseries(30).coefficients:
            assert isinstance(c, int) and c > 0

    def test_eval_matches_direct_value(self):
        series = lambda_star_qseries(40)
        got = qseries_eval(series, 2.5j)
        with mp.workdps(110):
            direct = lambda_star(2.5j, 1e-90)
            diff = abs(got.value - direct.value)
            assert diff <= got.trunc_bound + mpmath.mpf(1e-88)
        assert got.trunc_bound < 1e-50

    def test_eval_needs_imaginary_part_above_one(self):
        series = lambda_star_qseries(10)
        # Im tau = 1 + 1e-45 passes an exact Im tau > 1 test, but |q2| e^pi
        # rounds to 1 at 40 digits; at Im tau = 1 with this real part,
        # |q2| * e^pi rounds just below 1.
        with mp.workdps(80):
            barely_above = UpperHalfPoint(mpmath.mpc(0, 1 + mpmath.mpf("1e-45")))
        for p in (0.9j, barely_above, 4.398811831609649 + 1j):
            with pytest.raises(DessinryError) as exc:
                qseries_eval(series, p)
            assert exc.value.code == "tolerance-unreachable"

    def test_qseries_type(self):
        s = QSeries((1, 2, 3))
        assert s.order == 2
        assert isinstance(repr(s), str)


class TestCmTable:
    def test_row_count_and_keys(self):
        assert len(CM_ROWS) == 20
        assert [n for n, _ in CM_ROWS] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 22, 25, 28, 37, 58]

    def test_unknown_row(self):
        with pytest.raises(DessinryError):
            cm_value(11)

    @pytest.mark.parametrize("n", [True, False, 1.0, 2.0, 58.0, "1", None])
    def test_rejects_values_equal_to_a_row_number(self, n):
        # True == 1 and 2.0 == 2, but only an exact int names a row.
        with pytest.raises(DessinryError) as exc:
            cm_value(n)
        assert exc.value.code == "invalid-parameter"

    def test_unknown_expression_head(self):
        with pytest.raises(DessinryError) as exc:
            eval_radical(("log", 2))
        assert (exc.value.code, exc.value.message) == ("invalid-parameter", "unknown expression head 'log'")

    def test_first_row_is_exactly_two(self):
        assert cm_value(1) == 2

    @pytest.mark.parametrize("n", [2, 3, 6, 16])
    def test_spot_rows_against_tiling_parameter(self, n):
        with mp.workdps(40):
            stored = eval_radical(cm_value(n))
            computed = ap(mpmath.sqrt(n), 1e-25).value
            assert abs(stored - computed) < 1e-22

    def test_values_exceed_one(self):
        with mp.workdps(40):
            for n, expr in CM_ROWS:
                assert eval_radical(expr) > 1


class TestIntegrality:
    def test_small_degrees(self):
        for n in (1, 2, 3, 4):
            assert integrality_check(n) is True

    def test_rejects_bad_input(self):
        # A bool is an int to isinstance; True would check n = 1.
        for n in (0, 2.5, True, False):
            with pytest.raises(DessinryError) as exc:
                integrality_check(n)
            assert exc.value.code == "invalid-parameter"


# Every function that takes a tolerance, with a valid first argument.
TOLERANCE_TAKERS = [
    (eta, 1j),
    (weber_f, 1j),
    (weber_f1, 1j),
    (weber_f2, 1j),
    (lambda_star, 1j),
    (ap, 2),
    (j_oracle, 1j),
    (integrality_check, 1),
]


@pytest.mark.parametrize("tol", [0, -1, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("fn,arg", TOLERANCE_TAKERS, ids=[fn.__name__ for fn, _ in TOLERANCE_TAKERS])
def test_tolerance_must_be_positive_and_finite(fn, arg, tol):
    with pytest.raises(DessinryError) as exc:
        fn(arg, tol)
    assert exc.value.code == "invalid-parameter"


def test_modular_value_repr():
    mv = ModularValue(mpmath.mpf(2), mpmath.mpf("1e-20"))
    assert "trunc_bound" in repr(mv)


# Run where Python converts integers of any length to text, so that
# mpmath.nstr itself prints every value it is compared with.
NSTR_SCRIPT = """
import random, sys
import mpmath
from dessinry import modular
sys.set_int_max_str_digits(0)
rng = random.Random(3)
# The values ap(t) returns: e^{pi/t} / 16 at t = 1.2e-3 holds 3854 bits.
out = modular.ap(1.2e-3)
cases = [out.value, out.trunc_bound]
for prec in (53, 3854, 16000):
    with mpmath.workprec(prec):
        for _ in range(40):
            x = mpmath.mpf(10) ** rng.randint(-8000, 8000) * (1 + mpmath.mpf(rng.random()) / 3)
            cases += [x, -x, mpmath.mpc(x, -x / 3)]
for x in cases:
    for n in (15, 17):
        assert modular._nstr(x, n) == mpmath.nstr(x, n), (n, mpmath.nstr(x, n))
    with mpmath.workdps(17):
        value = modular.ModularValue(x, abs(x))
        assert repr(value) == "ModularValue(%s, trunc_bound=%s)" % (x, abs(x))
print(len(cases))
"""


def test_nstr_matches_mpmath_at_every_magnitude():
    # A value beyond 2^3500 at ap's precision is where mpmath.nstr converts
    # an integer of more than 4300 digits to text, which Python refuses by
    # default.
    with mp.workprec(15000):
        big = mpmath.mpf(10) ** 5000 / 3
    assert modular._nstr(big, 17) == "3.3333333333333333e+4999"
    assert repr(ModularValue(big, -big)) == "ModularValue(3.33333333333333e+4999, trunc_bound=-3.33333333333333e+4999)"
    src = os.path.dirname(os.path.dirname(modular.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NSTR_SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 2 + 3 * 40 * 3
