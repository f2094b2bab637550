"""Series evaluators and the Kraetzel kernel against independent references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tgcs.gseq import G1, Factorial, MLGamma, WrightProduct
from tgcs.specfun import (QUAD_TOL, QuadratureError, _chebyshev, _kratzel, _shifted_rows,
                          kratzel_kernel, mittag_leffler, truncated_series_scaled, wright)


def mpmath_kratzel(lam: float, mu: float, u: float) -> mpmath.mpf:
    """The Kraetzel kernel by mpmath.quad on t = ln v at 20 digits, as an mpf: its
    logarithm stays finite where the value is past the double range.

    Breakpoints every unit of t, and every half width around the peak of the
    integrand, which sharpens to a width ~0.05 at u = 1e3, lam = 1/2.
    """
    a = mu / lam - 1.0

    def slope(t):  # of the exponent; decreasing in t
        return a + u * math.exp(-t) - math.exp(t / lam) / lam

    # e^(t/lam) overflows past t = 709 lam, far right of the peak
    lo, hi = min(-60.0, math.log(u) - 10.0), min(60.0, 700.0 * lam)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    width = 1.0 / math.sqrt(u * math.exp(-lo) + math.exp(lo / lam) / lam ** 2)
    # the integrand is below exp(-2700) outside [ln u - 10, lam ln 1e3 + 2]
    left, right = math.log(u) - 10.0, lam * math.log(1e3) + 2.0
    # clipped: at mu = lam, ln u = -40 the peak is flat over 40 units, a width of 4e7
    points = sorted({left, right, *np.arange(math.ceil(left), right).tolist(),
                     *np.clip(lo + width * np.arange(-8.0, 8.5, 0.5), left, right).tolist()})
    with mpmath.workdps(20):
        def exponent(t):
            return a * t - u * mpmath.exp(-t) - mpmath.exp(t / lam)

        # relative to its maximum: quad's error estimate divides by log10 of the
        # change between its levels, which at (lam, mu) = (2, 1), ln u = -120 was
        # exactly 1, one unit in the last place of a segment worth 3e24
        peak = exponent(mpmath.mpf(lo))
        val = mpmath.quad(lambda t: mpmath.exp(exponent(t) - peak), points)
        return val * mpmath.exp(peak) / lam


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


def truncated_series(g, k, z):
    """The value mantissa * exp(log_scale) of truncated_series_scaled."""
    mant, log_scale = truncated_series_scaled(g, k, z)
    return mant * math.exp(log_scale)


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
                sum(z ** n / seq.g(n) for n in range(9)), rel=1e-13)

    def test_scaled_form_survives_huge_arguments(self):
        # plain double arithmetic would overflow at z = 1e200
        mant, log_scale = truncated_series_scaled(Factorial(), 10, 1e200)
        assert math.isfinite(abs(mant)) and mant != 0
        # dominant term is z^10/10!
        assert log_scale + math.log(abs(mant)) == pytest.approx(
            10 * math.log(1e200) - math.lgamma(11), rel=1e-12)

    def test_log_form(self):
        # ln of the series, m + ln sum w from the shifted rows, against the polynomial
        seq = MLGamma(1.5, 0.5)
        u = np.array([3.0, 0.2])
        (m, _, total), = _shifted_rows(seq.log_g_array(np.arange(13)), 0, np.log(u))
        assert (m + np.log(total))[:, 0] == pytest.approx(
            [math.log(truncated_series(seq, 12, x).real) for x in u], rel=1e-13)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            truncated_series(Factorial(), -1, 1.0)

    @given(seq=st.sampled_from([Factorial(), MLGamma(0.3, 1.2), WrightProduct(0.5, 0.5),
                                G1(1.0, 1.5, 0.8)]),
           k=st.integers(0, 80), z=st.complex_numbers(max_magnitude=1e200))
    @settings(max_examples=200, deadline=None)
    @example(seq=Factorial(), k=10, z=0j)
    @example(seq=MLGamma(0.3, 1.2), k=80, z=1e200)
    @example(seq=WrightProduct(0.5, 0.5), k=40, z=-1e200j)
    def test_scaled_form_is_the_plain_shifted_sum(self, seq, k, z):
        # n ln|z| - ln g(n), shifted by its max, exp, times the phase, summed in
        # ascending magnitude: bit for bit
        n = np.arange(k + 1)
        with np.errstate(invalid="ignore"):  # 0 * -inf at z = 0, where the term is 1/g(0)
            lt = np.where(n > 0, n * (math.log(abs(z)) if z else -math.inf), 0.0)
        lt -= seq.log_g_array(n)
        mag = np.exp(lt - lt.max())
        terms = mag * (z / abs(z) if z else 1.0) ** n
        ref = complex(np.sum(terms[np.argsort(mag)])), float(lt.max())
        assert repr(truncated_series_scaled(seq, k, z)) == repr(ref)

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
            assert kratzel_kernel(WrightProduct(1.0, 1.0), u) == pytest.approx(
                ref, rel=1e-8)

    def test_mellin_moments(self):
        # int_0^inf Z(u) u^(s-1) du = Gamma(s) Gamma(lam*s + mu - lam)
        from scipy import integrate
        for lam, mu in [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0)]:
            p = WrightProduct(lam, mu)
            for s in [1.0, 2.0, 3.0]:
                target = math.gamma(s) * math.gamma(lam * s + mu - lam)
                val, _ = integrate.quad(
                    lambda t: kratzel_kernel(p, math.exp(t)) * math.exp(s * t),
                    -30.0, 15.0, limit=300)
                assert val == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("lam, mu", [(0.5, 0.5), (2.0, 1.0)])
    def test_matches_mpmath_quad(self, lam, mu):
        for u in np.geomspace(1e-4, 1e3, 8):
            assert kratzel_kernel(WrightProduct(lam, mu), u) == pytest.approx(
                float(mpmath_kratzel(lam, mu, u)), rel=1e-12)

    @pytest.mark.parametrize("lam, mu, log_u", [
        (0.6515412866012806, 0.5373180936003719, -73.86253539305392),
        (0.5, 0.45, -67.5), (0.5, 0.45, -120.0), (2.0, 1.0, -120.0)])
    def test_mu_below_lam_at_small_u(self, lam, mu, log_u):
        # the window's right end cancelled to the peak where the slope there is
        # rounding noise below 0, dropping the slow e^(a t) tail: 0.22 of the value
        # at the first case
        u = math.exp(log_u)
        assert kratzel_kernel(WrightProduct(lam, mu), u) == pytest.approx(
            float(mpmath_kratzel(lam, mu, u)), rel=1e-12)

    def test_positive_on_wide_grid(self):
        p = WrightProduct(0.5, 1.5)
        for u in np.geomspace(1e-6, 1e3, 30):
            assert kratzel_kernel(p, u) >= 0.0

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_refuses_a_non_finite_u(self, u):
        # nan came back as nan (after a RuntimeWarning), inf as a value
        with pytest.raises(ValueError, match="finite u > 0"):
            kratzel_kernel(WrightProduct(1.0, 1.0), u)

    @given(st.sampled_from([WrightProduct(0.5, 0.5), WrightProduct(1.0, 1.0),
                            WrightProduct(2.0, 0.3)]), st.floats())
    @settings(max_examples=200, deadline=None)
    @example(WrightProduct(0.5, 0.5), math.nan)
    def test_label_sweep_finite_or_refused(self, seq, u):
        # a non-finite u used to come back as 0.0
        try:
            value = kratzel_kernel(seq, u)
        except ValueError:
            return
        assert math.isfinite(u) and math.isfinite(value), (u, value)

    def test_small_lam_resolves_the_cliff(self):
        # e^(t/lam) is 0.076 wide: rows started at step 0.5 met their tolerance after
        # halvings that had not resolved it, 2.7e-7 off in ln Z
        lam, mu, log_u = 0.07640928619534303, 0.03115124714094506, -16.85
        assert _kratzel(lam, mu, log_u) == pytest.approx(
            float(mpmath.log(mpmath_kratzel(lam, mu, math.exp(log_u)))), abs=1e-12)

    @given(lam=st.floats(math.log(0.02), math.log(0.2)),
           mu=st.floats(math.log(0.02), math.log(0.2)), log_u=st.floats(-40.0, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_small_lam_and_mu_against_mpmath(self, lam, mu, log_u):
        # lam and mu log-uniform in [0.02, 0.2]: within QUAD_TOL in ln Z, or refused (at
        # mu < lam and ln u near -30 the window can cut off the slow left tail)
        lam, mu = math.exp(lam), math.exp(mu)
        try:
            log_z = _kratzel(lam, mu, log_u)
        except QuadratureError:
            return
        assert abs(log_z - float(mpmath.log(mpmath_kratzel(lam, mu, math.exp(log_u))))) \
            <= QUAD_TOL

    def test_node_budget_refuses_a_huge_window(self):
        # at lam = 1e12 the window runs 700 lam = 7e14 to the right of the peak: the
        # pass asked for 132 TiB of nodes and ended in MemoryError
        with pytest.raises(QuadratureError, match="a pass of more than"):
            kratzel_kernel(WrightProduct(1e12, 1.0), 2.0)

    @pytest.mark.parametrize("lam, mu, match", [
        (1e-200, 1.0, "a pass of more than"),  # a divide-by-zero warning
        (5e-324, 1.0, "outside the double range"),  # an overflow warning, then nan
        (1e-3, 1e3, "overflows a double"),  # OverflowError
        (1.3407807929942597e154, 1.0, "a pass of more than"),  # OverflowError of lam ** 2
        (1.0, 1e300, "empty window")])  # 0.0, the peak 1e-150 wide between two nodes
    def test_extreme_parameters_are_refused(self, lam, mu, match):
        with pytest.raises(QuadratureError, match=match):
            kratzel_kernel(WrightProduct(lam, mu), 2.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kratzel_kernel(WrightProduct(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            WrightProduct(-1.0, 1.0)



class TestChebyshev:
    def test_reproduces_an_analytic_function_on_a_wide_window(self):
        # a rise and a doubly exponential fall, as ln Z has, over 110 units of t
        def f(t):
            return 0.4 * t - np.exp(t / 4.0) + np.sin(t / 9.0)

        t = np.random.default_rng(1).uniform(-100.0, 10.0, 5000)
        assert np.max(np.abs(_chebyshev(f, -100.0, 10.0)(t) - f(t))) <= 1e-13

    def test_gives_the_node_values_at_the_nodes(self):
        seen = []

        def f(t):
            seen.append((t, np.exp(-t ** 2 / 50.0)))
            return seen[-1][1]

        interpolant = _chebyshev(f, -30.0, 20.0)
        nodes, values = (np.concatenate(x) for x in zip(*seen))
        assert np.array_equal(interpolant(nodes), values)

    def test_two_panels_give_the_node_values_at_the_nodes(self):
        seen = []

        def f(t):
            seen.append((t, np.where(t < 0.0, 0.3 * t, 0.3 * t - np.expm1(t))))
            return seen[-1][1]

        interpolant = _chebyshev(f, -60.0, 0.0, 8.0)
        nodes, values = (np.concatenate(x) for x in zip(*seen))
        assert np.array_equal(interpolant(nodes), values)
        assert np.sum(nodes == 0.0) == 2  # the break is an end node of both panels

    def test_two_panels_follow_a_change_of_regime_at_the_break(self):
        # a kink at t = 0, a power law left of it and a doubly exponential fall right
        # of it, as ln Z has at its decay onset: one panel across it meets the chop
        # test nowhere
        def f(t):
            return np.where(t < 0.0, 0.4 * t, 0.4 * t - np.expm1(t))

        t = np.random.default_rng(2).uniform(-60.0, 8.0, 5000)
        error = np.abs(_chebyshev(f, -60.0, 0.0, 8.0)(t) - f(t))
        assert np.all(error <= 1e-13 * (1.0 + np.abs(f(t))))
        with pytest.raises(QuadratureError, match="not resolved"):
            _chebyshev(f, -60.0, 8.0)

    def test_refuses_at_the_cap(self):
        # coefficients falling as k^-4, 16-fold per doubling, from too high to
        # meet the chop test by N = 2048
        with pytest.raises(QuadratureError, match="not resolved by 2048"):
            _chebyshev(lambda t: 1e4 * np.abs(t) ** 3, -1.0, 1.0)

    def test_refuses_a_non_finite_f(self):
        with pytest.raises(QuadratureError, match="not finite"):
            _chebyshev(lambda t: np.where(t > 0.5, -np.inf, t), 0.0, 1.0)
