"""Completeness weight functions and the radial moment identities."""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc, i0e, k0e

from tgcs import specfun
from tgcs.completeness import (CanonicalTruncatedWeight, GeneralWeight, MLWeight,
                               WeightFunction, WrightWeight, moment_check,
                               weight_radial_moment)
from tgcs.gseq import G1, AuxFunction, MomentReport, Table, WrightProduct, verify_mellin_link
from tgcs.specfun import QUAD_TOL, QuadratureError, _trapezoid, _window
from tgcs.states import INFINITE, MAX_TERMS, DivergenceError

EPS = float(np.finfo(float).eps)


def improper(log_f, tol=1e-8):
    """int_0^inf f(u) du by specfun._trapezoid on t = ln u (Jacobian u), from ln f."""
    return _trapezoid(lambda t: log_f(np.exp(t)) + t, tol, -700.0, 700.0, 0.5)[0]


class TestQuadratureImproper:
    def test_exponential(self):
        assert improper(lambda u: -u) == pytest.approx(1.0, rel=1e-10)

    def test_integrable_power_singularity(self):
        assert improper(lambda u: -u - 0.5 * np.log(u)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-9)

    def test_gaussian(self):
        # u^2 overflows past u = 1e154, where ln f = -inf: the integrand is 0
        assert improper(lambda u: -u ** 2) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(QuadratureError):
            improper(lambda u: np.where((1.0 < u) & (u < 2.0), bad, -u))

    def test_tolerance_below_rounding_raises(self):
        # the error estimate never falls below the rounding floor eps * |sum|
        with pytest.raises(QuadratureError) as exc:
            improper(lambda u: -u, tol=1e-20)
        assert exc.value.value == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(QuadratureError):
            moment_check(MLWeight(1.0, 1.0), 2, 1e-20)

    @given(c=st.floats(-2000.0, 2000.0))
    @settings(max_examples=100, deadline=None)
    @example(c=709.0)  # e^c I, 0.46 of the largest double
    @example(c=709.8)  # e^c I, 1.02 of it
    @example(c=-708.39)  # e^c I, 1.006 of the smallest normal double
    @example(c=-708.4)  # e^c I, 0.996 of it
    def test_a_shift_of_ln_f_scales_the_integral(self, c):
        # ln f + c integrates to e^c I, within the rounding of ln f + c in each node;
        # outside the double range it is refused, not returned as inf or 0
        exact = mpmath.exp(c) * improper(lambda u: -u)
        rel = 4.0 * (abs(c) + 1.0) * EPS
        try:
            shifted = improper(lambda u: c - u)
        except QuadratureError as exc:
            assert "outside the double range" in str(exc)
            assert not (sys.float_info.min * (1.0 + rel) <= exact
                        <= sys.float_info.max * (1.0 - rel))
            return
        assert abs(shifted - exact) <= rel * exact

    def test_window_that_cuts_off_a_tail_raises(self):
        # on the first grid, with one call of f: these took 4 and 7 calls, and 11 203
        # and 44 803 nodes, when the tails were checked after the halvings
        calls = []

        def counted(f):
            return lambda t: calls.append(t.size) or f(t)

        # e^(-|t|/1000) is e^-0.7 at +-700, and its tails hold most of the integral
        with pytest.raises(QuadratureError, match="cuts off"):
            _trapezoid(counted(lambda t: -np.abs(t) / 1000.0), 1e-8, -700.0, 700.0, 0.5)
        assert calls == [2801]
        calls.clear()
        # a rising end has an unbounded tail
        with pytest.raises(QuadratureError, match="cuts off"):
            _trapezoid(counted(lambda t: t / 100.0), 1e-8, -700.0, 0.0, 0.5)
        assert calls == [1401]

    @pytest.mark.parametrize("sigma", [1e-3, 1e-4, 1e-5])
    def test_narrow_gaussian_halves_until_it_converges(self, sigma):
        # a row halves until it converges: ten halvings at most refused all three,
        # although at sigma = 1e-3 the best estimate was already within 1e-18
        total = _trapezoid(lambda t: -0.5 * (t / sigma) ** 2, 1e-10, -5.0, 5.0, 0.5)
        assert total.shape == (1,)
        exact = sigma * math.sqrt(2.0 * math.pi)
        assert abs(total[0] - exact) <= 1e-12 * exact

    def test_clipped_end_with_a_small_tail_is_kept(self):
        # ML(2, 0.1) at n = 0: F u ~ e^(t/20), which a window clipped to t = -700 left
        # at e^-35, a tail of about 1e-15 of the moment; the window now starts at
        # e^-60, at t = -1200
        assert _window(*MLWeight(2.0, 0.1)._tails, np.arange(3))[0][0] == -1200.0
        rep = moment_check(MLWeight(2.0, 0.1), 2, 1e-8)
        assert rep.passed and rep.max_residual <= 1e-13

    def test_identically_zero_row_is_refused(self):
        # no largest ln f to shift the row by
        with pytest.raises(QuadratureError, match="0 at every node"):
            _trapezoid(lambda t: np.full_like(t, -np.inf), 1e-8, -5.0, 5.0, 0.5)

    @pytest.mark.parametrize("f", [AuxFunction(0.0, 5e-324, 1.0)])  # rho^-1 ln w = inf * 0
    def test_integrand_outside_the_double_range_has_no_window(self, f):
        with pytest.raises(QuadratureError, match="outside the double range"):
            _window(*f._tails, np.arange(2))


class TestWeightEval:
    def test_canonical_ml_limit_is_constant(self):
        # alpha = beta = 1 collapses to the flat canonical density 1/pi
        w = MLWeight(1.0, 1.0, INFINITE)
        for u in [0.1, 1.0, 10.0, 100.0]:
            assert w.eval(u) == pytest.approx(1.0 / math.pi, rel=1e-11)

    def test_canonical_truncated_odd_k_goes_negative(self):
        # k = 1 at u = 2: pi^-1 e^-2 (1 - 2) < 0; the known sign defect
        w = CanonicalTruncatedWeight(1)
        assert w.eval(2.0) == pytest.approx(
            math.exp(-2.0) * (1.0 - 2.0) / math.pi, rel=1e-13)
        assert w.eval(2.0) < 0

    def test_ml_truncated_hand_value(self):
        # (1/(pi*alpha)) u^(beta/alpha - 1) e^{-u^(1/alpha)} * partial series
        w = MLWeight(0.5, 0.5, 3)
        u = 1.0
        series = sum(u ** n / math.gamma(0.5 * n + 0.5) for n in range(4))
        expected = (1.0 / (math.pi * 0.5)) * math.exp(-1.0) * series
        assert w.eval(u) == pytest.approx(expected, rel=1e-12)
        assert w.eval(u) > 0

    def test_positive_on_log_grid(self):
        weights = [MLWeight(1.0, 1.0, INFINITE), MLWeight(0.5, 0.5, 10),
                   MLWeight(0.1, 0.1, 20), WrightWeight(0.5, 0.5, 10),
                   GeneralWeight(AuxFunction(1.0, 2.0, 1.0), G1(1.0, 2.0, 1.0),
                                 INFINITE)]
        for w in weights:
            for u in np.geomspace(1e-4, 1e2, 200):
                assert w.eval(u) >= 0.0

    # U is finite where F underflows and T overflows: log space, not a 0
    @given(st.floats(1e-3, 300.0))
    @settings(max_examples=30, deadline=None)
    def test_ml_half_matches_closed_form(self, u):
        # E_{1/2,1/2}(u) = 1/sqrt(pi) + u e^(u^2) erfc(-u); ln F and ln T are each
        # of size u^2 and rounded to eps u^2 before they cancel
        exact = 2.0 / math.pi * (math.exp(-u * u) / math.sqrt(math.pi) + u * erfc(-u))
        assert MLWeight(0.5, 0.5).eval(u) == pytest.approx(
            exact, rel=1e-12 + 4 * EPS * u * u)

    @pytest.mark.parametrize("u", np.geomspace(1e-3, 1e6, 19))
    def test_wright_unit_matches_bessel_product(self, u):
        # W_{1,1}(u) = I0(2 sqrt u), Z(u) = 2 K0(2 sqrt u)
        x = 2.0 * math.sqrt(u)
        assert WrightWeight(1.0, 1.0).eval(u) == pytest.approx(
            2.0 / math.pi * i0e(x) * k0e(x), rel=1e-12)

    def test_wright_half_at_large_u(self):
        # mpmath at 40 digits; Z(1e4) ~ e^-877 underflows on its own
        assert WrightWeight(0.5, 0.5).eval(1e4) == pytest.approx(
            0.012409918059686, rel=1e-12)

    def test_series_past_term_budget_is_refused(self):
        # E_{1/2,1/2}(2000) needs about 8e6 terms
        with pytest.raises(DivergenceError):
            MLWeight(0.5, 0.5).eval(2000.0)

    @given(alpha=st.floats(), beta=st.floats(), k=st.sampled_from([3, INFINITE]))
    @settings(max_examples=300, deadline=None)
    # beta/alpha past the double range: (beta/alpha - 1) t was inf * 0 = NaN at u = 1
    # and inf - inf past it
    @example(alpha=5e-324, beta=1.0, k=3)
    @example(alpha=1e-300, beta=1e10, k=3)
    @example(alpha=1e-10, beta=1e300, k=3)
    def test_ml_any_alpha_beta_is_refused_or_finite(self, alpha, beta, k):
        # alpha and beta from all floats, NaN and infinities too: a ValueError when built,
        # or U at u = 0.5, 1, 2 finite or refused
        try:
            w = MLWeight(alpha, beta, k)
        except ValueError:
            return
        for u in (0.5, 1.0, 2.0):
            try:
                value = w.eval(u)
            except (ValueError, QuadratureError):
                continue
            assert math.isfinite(value), (u, value)

    def test_ml_exponent_past_the_double_range_is_refused(self):
        # eval(e^100) was NaN: (beta/alpha - 1) t = 1e309 and e^(t/alpha) both
        # overflowed, and inf - inf is NaN
        with pytest.raises(ValueError, match="beta/alpha"):
            MLWeight(1e-5, 1e302, 3)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            MLWeight(1.0, 1.0).eval(0.0)

    @pytest.mark.parametrize("k", [3, INFINITE])
    @pytest.mark.parametrize("u", [0.0, -1.0, math.nan, np.array([1.0, 0.0]),
                                   np.array([2.0, math.nan])])
    def test_refuses_u_not_positive_up_front(self, k, u):
        # one ValueError before any log or sum, not a math domain error inside it
        with pytest.raises(ValueError, match="u > 0"):
            MLWeight(1.0, 1.0, k).eval(u)


_WEIGHTS = [lambda k: MLWeight(0.5, 0.5, k), lambda k: WrightWeight(0.5, 0.5, k),
            lambda k: GeneralWeight(AuxFunction(0.5, 1.5, 2.0), G1(0.5, 1.5, 2.0), k),
            CanonicalTruncatedWeight]
_WEIGHT_IDS = ["ml", "wright", "general", "canonical-truncated"]


class TestLabelSweep:
    @pytest.mark.parametrize("make", _WEIGHTS, ids=_WEIGHT_IDS)
    @pytest.mark.parametrize("u", [math.inf, np.array([1.0, math.inf])])
    def test_refuses_an_infinite_u(self, make, u):
        # a RuntimeWarning and nan at finite k; MLWeight at k = inf gave a
        # DivergenceError for "u=inf"
        for k in [6, INFINITE] if make is not CanonicalTruncatedWeight else [6]:
            with pytest.raises(ValueError, match="finite u > 0"):
                make(k).eval(u)

    @pytest.mark.parametrize("make", _WEIGHTS, ids=_WEIGHT_IDS)
    @given(k=st.sampled_from([6, INFINITE]), u=st.floats())
    @settings(max_examples=100, deadline=None)
    @example(k=6, u=math.inf)
    def test_eval_is_finite_or_refused(self, make, k, u):
        if make is CanonicalTruncatedWeight and k == INFINITE:
            return
        try:
            value = make(k).eval(u)
        except ValueError:
            return
        assert math.isfinite(value), (u, value)

    @pytest.mark.parametrize("make", _WEIGHTS, ids=_WEIGHT_IDS)
    @given(k=st.one_of(st.integers(), st.floats()))
    @settings(max_examples=60, deadline=None)
    def test_any_k_is_a_level_or_refused(self, make, k):
        # a k past 1000 but inside the term budget is built and not evaluated
        try:
            w = make(k)
        except ValueError:
            return
        assert w.k == INFINITE or 0 <= w.k < MAX_TERMS
        if w.k <= 1000:
            try:
                value = w.eval(1.0)
            except ValueError:
                return
            assert math.isfinite(value)

    def test_a_k_past_the_term_budget_is_refused_when_built(self):
        # MLWeight(1, 1, k=10^12).eval(1.0) used to allocate 7 TiB
        for k in [MAX_TERMS, 10 ** 12]:
            with pytest.raises(ValueError, match="k must be"):
                MLWeight(1.0, 1.0, k)


class TestTruncationLevel:
    @pytest.mark.parametrize("k", [2.5, math.nan, -1, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda k: MLWeight(1.0, 1.0, k), lambda k: WrightWeight(1.0, 1.0, k),
        lambda k: GeneralWeight(AuxFunction(), G1(0.0, 1.0, 1.0), k), CanonicalTruncatedWeight,
    ], ids=["ml", "wright", "general", "canonical-truncated"])
    def test_refused_at_construction(self, make, k):
        # 2.5 used to sum to n = 3, NaN and -1 to fail inside the sum
        with pytest.raises(ValueError, match="k must be"):
            make(k)

    def test_canonical_truncated_needs_a_finite_k(self):
        with pytest.raises(ValueError, match="finite k"):
            CanonicalTruncatedWeight(INFINITE)

    @pytest.mark.parametrize("k, error", [(INFINITE, DivergenceError), (3, ValueError),
                                          (10, ValueError)])
    def test_a_table_it_cannot_sum_is_refused_at_construction(self, k, error):
        # eval used to raise a bare IndexError from inside the row
        with pytest.raises(error, match="Table"):
            GeneralWeight(AuxFunction(), Table((1.0, 1.0, 2.0)), k)

    def test_an_integral_float_is_held_as_an_int(self):
        w = MLWeight(1.0, 1.0, 3.0)
        assert w.k == 3 and isinstance(w.k, int) and w.label() == "ml(alpha=1.0,beta=1.0,k=3)"


class TestMomentCheck:
    def test_ml_infinite(self):
        rep = moment_check(MLWeight(1.0, 1.0, INFINITE), 6, 1e-8)
        assert rep.passed
        assert rep.rows[0].target == pytest.approx(1.0)

    def test_ml_truncated_holds_beyond_k(self):
        # the truncated weight reuses the untruncated kernel, so the identity
        # holds for every n, not just n <= k... but n_max > k is rejected
        rep = moment_check(MLWeight(2.0, 1.0, 5), 5, 1e-8)
        assert rep.passed

    def test_n_max_beyond_truncation_rejected(self):
        with pytest.raises(ValueError):
            moment_check(MLWeight(2.0, 1.0, 5), 6, 1e-8)

    def test_wright(self):
        rep = moment_check(WrightWeight(1.0, 1.0, 4), 2, 1e-6)
        assert rep.passed
        # n = 2 target: 2! * Gamma(3) = 4
        assert rep.rows[2].target == pytest.approx(4.0)

    def test_wright_with_mu_below_lam(self):
        # Z(u) ~ u^(mu/lam - 1) at small u: the outer window's left tail is slowest here
        rep = moment_check(WrightWeight(1.0, 0.5, INFINITE), 3, 1e-8)
        assert rep.passed

    def test_general_matched_pair(self):
        f = AuxFunction(1.0, 2.0, 1.0)
        rep = moment_check(GeneralWeight(f, f.matching_sequence(), INFINITE), 6, 1e-6)
        assert rep.passed

    def test_overflowing_general_weight_is_refused_without_a_warning(self):
        # F u^2 at u = e^t peaks near e^1055, at t = 470: the n = 1 moment lies outside
        # the double range
        f = AuxFunction(0.5, 0.02, 1e-2)
        with pytest.raises(QuadratureError, match="outside the double range"):
            moment_check(GeneralWeight(f, f.matching_sequence()), 2, 1e-8)

    def test_canonical_truncated_reports_without_asserting(self):
        # no analytic cancellation exists; the identity is only approximate and
        # the report records the residuals as data
        rep = moment_check(CanonicalTruncatedWeight(3), 3, 1e-8)
        assert len(rep.rows) == 4
        assert all(math.isfinite(r.residual) for r in rep.rows)

    def test_canonical_truncated_k1_closed_form(self):
        # k = 1: pi^-1 e^-u (1 - u) changes sign at u = 1, a node of the trimming
        # grid, where a cut support once lost the negative lobe;
        # int e^-u (1-u)/(1+u) u^n du = +-(2e E1(1) - 1) for n = 0, 1
        exact = 2.0 * math.e * float(mpmath.e1(1)) - 1.0
        rep = moment_check(CanonicalTruncatedWeight(1), 1, 1e-8)
        assert rep.rows[0].value == pytest.approx(exact, rel=1e-12)
        assert rep.rows[1].value == pytest.approx(-exact, rel=1e-12)

    def test_canonical_truncated_factor_memory_is_bounded(self):
        # the factor is built in blocks of at most specfun._BLOCK (node, j) entries;
        # built at once over every node, the peak grew with k, about 270 MB here and
        # 14 GB at the largest k the weight accepts
        tracemalloc.start()
        try:
            moment_check(CanonicalTruncatedWeight(40_000), 1, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestWrightInterpolatedRoute:
    @given(lam=st.floats(math.log(0.05), math.log(5.0)),
           mu=st.floats(math.log(0.05), math.log(5.0)))
    @settings(max_examples=20, deadline=None)
    # the direct route was 1.7e-10 off g(1) here, from a Kraetzel row at one outer node
    # that stopped before its step resolved the e^(t/lam) cliff; both now come within
    # 1e-14
    @example(lam=math.log(0.10628043254226659), mu=math.log(0.055814576302982484))
    # the outer window runs to t = -2000, and the direct route's Kraetzel rows, one per
    # outer node, ask for more nodes than one pass may sample
    @example(lam=1.0, mu=-2.5)
    def test_matches_the_direct_route(self, lam, mu):
        # lam and mu log-uniform in [0.05, 5]: both routes raise, or they agree within
        # 1e-12, or the interpolated route is the one nearer g(n); where only the node
        # budget refuses the direct route, the interpolated one passes against g(n)
        w, n = WrightWeight(math.exp(lam), math.exp(mu)), np.arange(3)
        try:
            direct = WeightFunction._cancelled_moments(w, n, 1e-8)
        except QuadratureError as exc:
            if "a pass of more than" in str(exc):
                assert moment_check(w, 2, 1e-8).passed
                return
            with pytest.raises(QuadratureError):
                w._cancelled_moments(n, 1e-8)
            return
        interpolated = w._cancelled_moments(n, 1e-8)
        target = np.array([w.moment_target(k) for k in n])
        assert np.all((np.abs(interpolated - direct) <= 1e-12 * direct)
                      | (np.abs(interpolated - target) < np.abs(direct - target)))

    @given(lam=st.floats(math.log(0.02), math.log(8.0)),
           mu=st.floats(math.log(0.02), math.log(8.0)))
    @settings(max_examples=100, deadline=None)
    @example(lam=math.log(0.09755983397799592), mu=math.log(0.031049533896327523))
    def test_check_reports_or_refuses(self, lam, mu):
        # lam and mu log-uniform in [0.02, 8]: a report, or a QuadratureError, and
        # never an error from inside the quadrature
        try:
            rep = moment_check(WrightWeight(math.exp(lam), math.exp(mu)), 1, 1e-6)
        except QuadratureError:
            return
        assert isinstance(rep, MomentReport)

    def test_node_budget_refuses_a_huge_window(self):
        # at lam = 1e12 the kernel rows run 700 lam = 7e14 to the right of their peaks:
        # the first pass asked for 8.35 PiB of nodes and ended in MemoryError
        with pytest.raises(QuadratureError, match="a pass of more than"):
            moment_check(WrightWeight(1e12, 1.0), 1, 1e-6)

    @given(lam=st.floats(0.0, exclude_min=True, allow_infinity=False),
           mu=st.floats(0.0, exclude_min=True, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    @example(lam=1e-200, mu=1.0)  # a divide-by-zero warning in the kernel
    # an overflow warning in the kernel, and a bare math domain error from the window
    @example(lam=5e-324, mu=1.0)
    @example(lam=1e-3, mu=1e3)  # the kernel's value ended in OverflowError
    @example(lam=1.0, mu=5e-324)  # an overflow warning in the window's left end
    @example(lam=1.0, mu=1e300)  # the kernel came back 0.0
    def test_kernel_and_check_are_finite_or_refused(self, lam, mu):
        # lam and mu from all positive floats: ValueError from the sequence, a finite
        # kernel and a report, or QuadratureError; never a warning (pytest makes each an
        # error) or another exception
        try:
            seq = WrightProduct(lam, mu)
        except ValueError:
            return
        try:
            assert math.isfinite(specfun.kratzel_kernel(seq, 2.0))
        except QuadratureError:
            pass
        try:
            assert isinstance(moment_check(WrightWeight(lam, mu), 1, 1e-6), MomentReport)
        except QuadratureError:
            pass

    def test_kratzel_window_end_that_is_nan_is_dropped(self):
        # rows near ln u = -195 peak at t_a, where B = e^(t_a/lam) underflows and the
        # slope is 0: the right end's quadratic bound is 0/0, which the window drops
        rep = moment_check(WrightWeight(0.09755983397799592, 0.031049533896327523), 1, 1e-6)
        assert rep.passed and rep.max_residual <= 1e-13

    def test_kratzel_rows_per_check(self, monkeypatch):
        # rows: ln Z at each Chebyshev point; nodes and passes: what the rows' trapezoid
        # samples.  One panel over the whole window with every row at a step of lam/2
        # sampled 27178 nodes in 12 passes here
        rows, nodes, inside = [], [], []
        kratzel, trapezoid = specfun._kratzel, specfun._trapezoid

        def counted(lam, mu, t):
            rows.append(np.size(t))
            inside.append(True)
            try:
                return kratzel(lam, mu, t)
            finally:
                inside.pop()

        def sampled(f, *args):
            def g(t, *p):
                nodes.append(np.size(t))
                return f(t, *p)

            return trapezoid(g if inside else f, *args)

        monkeypatch.setattr(specfun, "_kratzel", counted)
        monkeypatch.setattr(specfun, "_trapezoid", sampled)
        w = WrightWeight(0.7, 0.8)
        rep = moment_check(w, 2, 1e-6)
        assert rep.passed and rep.max_residual <= 1e-13
        assert sum(rows) <= 257
        assert sum(nodes) <= 20000 and len(nodes) <= 6
        rows.clear()
        WeightFunction._cancelled_moments(w, np.arange(3), 1e-6)
        assert sum(rows) >= 500  # the direct route, once per outer node

    def test_small_lam_mu_resolve_on_the_interpolant(self):
        # at lam = 0.076, mu = 0.031 the kernel's rows at step 0.5 stopped early on
        # their e^(t/lam) cliff, 2.7e-7 off in ln Z: its Chebyshev tail stalled near
        # 1e-11 and the check fell back to ln Z at every outer node.  At a step of
        # lam/2 ln Z passes the chop test with 257 points
        w = WrightWeight(0.07640928619534303, 0.03115124714094506)
        lo, hi, _ = _window(*w._tails, np.arange(2))
        points = []

        def log_z(t):
            points.append(np.size(t))
            return w._log_factor(t)

        specfun._chebyshev(log_z, lo.min(), hi.max())
        assert sum(points) <= 257
        rep = moment_check(w, 1, 1e-6)
        assert rep.passed and rep.max_residual <= 1e-13


class TestSequenceOfAWeight:
    @pytest.mark.parametrize("make", [lambda: MLWeight(0.5, 1.0),
                                      lambda: WrightWeight(0.7, 1.2, 4)])
    def test_built_once(self, make):
        # each build also runs the sequence's ln g check
        w = make()
        assert w.seq is w.seq
        assert w == make() and hash(w) == hash(make()) and repr(w) == repr(make())


class TestRadialMoment:
    def test_matches_target_for_ml(self):
        w = MLWeight(0.5, 0.5, INFINITE)
        for n in range(4):
            assert weight_radial_moment(w, n) == pytest.approx(
                w.moment_target(n), rel=1e-7)

    @pytest.mark.parametrize("make", _WEIGHTS, ids=_WEIGHT_IDS)
    def test_is_the_row_of_the_moment_check(self, make):
        # T cancels in pi int [T]^-1 U u^n du, so the radial moment is the weight's one
        # moment route: the row n of moment_check at QUAD_TOL, bit for bit
        w = make(6)
        for n in range(4):
            assert weight_radial_moment(w, n) == moment_check(w, n, QUAD_TOL).rows[n].value

    def test_a_small_alpha_needs_no_series(self):
        # the route that summed T at every node raised DivergenceError here, T summed at
        # the window's top past MAX_TERMS terms, and took 2.25 s a moment at alpha = 1e-3
        for alpha in [3e-4, 1e-3]:
            w = MLWeight(alpha, 0.5)
            assert weight_radial_moment(w, 1) == pytest.approx(w.moment_target(1), rel=1e-12)


class TestOrderRefusals:
    # an order that is no integer in [0, k] or a tol that is no finite number > 0 is
    # refused up front: n_max = -1 gave an empty report that passed, 2.5 a TypeError,
    # NaN "arange: cannot compute length", a radial moment at n = 2.5 a value for a g(2.5)
    # that no state has, and a NaN tol a report that failed
    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf, True, 2 ** 70, "2", None,
                                   np.float64(2.0), 7])
    def test_a_bad_order_is_refused(self, n):
        w, f = MLWeight(1.0, 1.0, 6), AuxFunction()
        with pytest.raises(ValueError, match="moment order"):
            moment_check(w, n, 1e-8)
        with pytest.raises(ValueError, match="moment order"):
            weight_radial_moment(w, n)
        if n != 7:
            with pytest.raises(ValueError, match="moment order"):
                verify_mellin_link(f, f.matching_sequence(), n, 1e-8)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, "1e-8", None])
    def test_a_bad_tol_is_refused(self, tol):
        f = AuxFunction()
        with pytest.raises(ValueError, match="tol must be"):
            moment_check(MLWeight(1.0, 1.0), 2, tol)
        with pytest.raises(ValueError, match="tol must be"):
            verify_mellin_link(f, f.matching_sequence(), 2, tol)

    def test_a_table_bounds_the_link_order_before_any_quadrature(self, monkeypatch):
        # past the Table's last index the link computed every Mellin row, then raised a
        # bare IndexError from seq.g
        calls = []
        monkeypatch.setattr(AuxFunction, "on_log_axis", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"moment order must be an integer in \[0, 2\]"):
            verify_mellin_link(AuxFunction(), Table((1.0, 1.0, 2.0)), 5, 1e-6)
        assert calls == []

    def test_an_order_past_the_term_budget_is_refused(self):
        # at k = inf the order is bounded by the term budget, as a finite k is
        with pytest.raises(ValueError, match="moment order"):
            weight_radial_moment(MLWeight(1.0, 1.0), MAX_TERMS)

    def test_numpy_integers_are_orders(self):
        w = MLWeight(1.0, 1.0, 6)
        assert weight_radial_moment(w, np.int64(2)) == weight_radial_moment(w, 2)
        assert moment_check(w, np.int32(6), 1e-8).passed
