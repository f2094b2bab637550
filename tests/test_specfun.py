"""Series evaluators and the Kraetzel kernel against independent references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tgcs.gseq import Factorial, MLGamma, WrightProduct
from tgcs.specfun import (KratzelParams, kratzel_kernel, log_gamma,
                          log_truncated_series, mittag_leffler, truncated_series,
                          truncated_series_scaled, wright)


def mpmath_kratzel(lam: float, mu: float, u: float) -> float:
    """The Kraetzel kernel by mpmath.quad on t = ln v at 20 digits.

    Breakpoints every unit of t, and every half width around the peak of the
    integrand, which sharpens to a width ~0.05 at u = 1e3, lam = 1/2.
    """
    a = mu / lam - 1.0

    def slope(t):  # of the exponent; decreasing in t
        return a + u * math.exp(-t) - math.exp(t / lam) / lam

    lo, hi = -60.0, 60.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    width = 1.0 / math.sqrt(u * math.exp(-lo) + math.exp(lo / lam) / lam ** 2)
    # the integrand is below exp(-2700) outside [ln u - 10, lam ln 1e3 + 2]
    left, right = math.log(u) - 10.0, lam * math.log(1e3) + 2.0
    points = sorted({left, right, *np.arange(math.ceil(left), right).tolist(),
                     *(lo + width * np.arange(-8.0, 8.5, 0.5)).tolist()})
    with mpmath.workdps(20):
        val = mpmath.quad(lambda t: mpmath.exp(a * t - u * mpmath.exp(-t)
                                               - mpmath.exp(t / lam)), points)
    return float(val) / lam


class TestLogGamma:
    def test_matches_math_lgamma(self):
        for x in [0.1, 0.5, 1.0, 2.5, 10.0, 100.0]:
            assert log_gamma(x) == math.lgamma(x)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.0)


class TestMittagLeffler:
    def test_alpha_beta_one_is_exp(self):
        for x in np.linspace(0.0, 30.0, 61):
            assert mittag_leffler(1.0, 1.0, x) == pytest.approx(
                math.exp(x), rel=1e-13)

    def test_alpha_two_is_cosh_sqrt(self):
        for x in np.linspace(0.0, 10.0, 41):
            assert mittag_leffler(2.0, 1.0, x * x) == pytest.approx(
                math.cosh(x), rel=1e-10)

    def test_at_zero_is_reciprocal_gamma(self):
        for beta in [0.3, 1.0, 2.5]:
            assert mittag_leffler(0.7, beta, 0.0) == pytest.approx(
                1.0 / math.gamma(beta), abs=1e-14)

    def test_against_mpmath_series(self):
        with mpmath.workdps(50):
            for alpha, beta, x in [(0.5, 0.5, 2.0), (1.5, 0.7, 5.0), (3.0, 2.0, 8.0)]:
                ref = float(mpmath.nsum(
                    lambda n: mpmath.mpf(x) ** n / mpmath.gamma(alpha * n + beta),
                    [0, mpmath.inf]))
                assert mittag_leffler(alpha, beta, x) == pytest.approx(ref, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, 1.0, -0.5)

    @given(x=st.floats(0.0, 50.0), alpha=st.floats(0.3, 3.0), beta=st.floats(0.3, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_and_monotone_in_x(self, x, alpha, beta):
        # keep exp(x^(1/alpha)) growth inside the double range
        assume((x + 1.0) ** (1.0 / alpha) < 600.0)
        lo = mittag_leffler(alpha, beta, x)
        hi = mittag_leffler(alpha, beta, x + 1.0)
        assert lo > 0
        assert hi > lo


class TestWright:
    def test_at_zero_is_reciprocal_gamma(self):
        for lam, mu in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.3)]:
            assert abs(wright(lam, mu, 0.0) - 1.0 / math.gamma(mu)) <= 1e-14

    def test_against_mpmath_series(self):
        with mpmath.workdps(50):
            for lam, mu, x in [(1.0, 1.0, 1.0), (0.5, 0.5, 3.0), (2.0, 1.5, 10.0)]:
                ref = float(mpmath.nsum(
                    lambda n: mpmath.mpf(x) ** n
                    / (mpmath.factorial(n) * mpmath.gamma(lam * n + mu)),
                    [0, mpmath.inf]))
                assert wright(lam, mu, x) == pytest.approx(ref, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wright(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            wright(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            wright(1.0, 1.0, -1.0)


class TestTruncatedSeries:
    def test_factorial_is_partial_exp(self):
        # sum_{n=0}^{k} z^n / n! at k=3, z=1: 1 + 1 + 1/2 + 1/6
        val = truncated_series(Factorial(), 3, 1.0)
        assert val.real == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert val.imag == 0.0

    def test_complex_argument(self):
        z = 0.5 + 1.5j
        direct = sum(z ** n / math.factorial(n) for n in range(6))
        assert truncated_series(Factorial(), 5, z) == pytest.approx(direct, rel=1e-14)

    def test_monotone_in_k_for_positive_argument(self):
        seq = MLGamma(0.5, 0.5)
        vals = [truncated_series(seq, k, 2.0).real for k in range(1, 15)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_converges_to_full_series(self):
        assert truncated_series(MLGamma(0.7, 1.3), 200, 4.0).real == pytest.approx(
            mittag_leffler(0.7, 1.3, 4.0), rel=1e-12)

    def test_scaled_form_agrees(self):
        seq = WrightProduct(0.5, 0.5)
        for z in [0.0, 1.0, -2.0 + 1.0j]:
            mant, log_scale = truncated_series_scaled(seq, 8, z)
            assert mant * math.exp(log_scale) == pytest.approx(
                truncated_series(seq, 8, z), rel=1e-13)

    def test_scaled_form_survives_huge_arguments(self):
        # plain double arithmetic would overflow at z = 1e200
        mant, log_scale = truncated_series_scaled(Factorial(), 10, 1e200)
        assert math.isfinite(abs(mant)) and mant != 0
        # dominant term is z^10/10!
        assert log_scale + math.log(abs(mant)) == pytest.approx(
            10 * math.log(1e200) - math.lgamma(11), rel=1e-12)

    def test_log_form(self):
        seq = MLGamma(1.5, 0.5)
        u = 3.0
        assert log_truncated_series(seq, 12, math.log(u)) == pytest.approx(
            math.log(truncated_series(seq, 12, u).real), rel=1e-13)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            truncated_series(Factorial(), -1, 1.0)

    @given(k=st.integers(1, 30), u=st.floats(1e-3, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_u_bounded_by_full_series(self, k, u):
        partial = truncated_series(Factorial(), k, u).real
        assert 0 < partial < math.exp(u) * (1 + 1e-12)


class TestKratzelKernel:
    def test_reduces_to_bessel_k0(self):
        # lam = mu = 1 gives 2 K0(2 sqrt(u))
        from scipy.special import kv
        for u in [0.1, 0.5, 1.0, 4.0, 10.0]:
            ref = 2.0 * float(kv(0, 2.0 * math.sqrt(u)))
            assert kratzel_kernel(KratzelParams(1.0, 1.0), u) == pytest.approx(
                ref, rel=1e-8)

    def test_mellin_moments(self):
        # int_0^inf Z(u) u^(s-1) du = Gamma(s) Gamma(lam*s + mu - lam)
        from scipy import integrate
        for lam, mu in [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0)]:
            p = KratzelParams(lam, mu)
            for s in [1.0, 2.0, 3.0]:
                target = math.gamma(s) * math.gamma(lam * s + mu - lam)
                val, _ = integrate.quad(
                    lambda t: kratzel_kernel(p, math.exp(t)) * math.exp(s * t),
                    -30.0, 15.0, limit=300)
                assert val == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("lam, mu", [(0.5, 0.5), (2.0, 1.0)])
    def test_matches_mpmath_quad(self, lam, mu):
        for u in np.geomspace(1e-4, 1e3, 8):
            assert kratzel_kernel(KratzelParams(lam, mu), u) == pytest.approx(
                mpmath_kratzel(lam, mu, u), rel=1e-12)

    def test_positive_on_wide_grid(self):
        p = KratzelParams(0.5, 1.5)
        for u in np.geomspace(1e-6, 1e3, 30):
            assert kratzel_kernel(p, u) >= 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kratzel_kernel(KratzelParams(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            KratzelParams(-1.0, 1.0)

