"""Completeness weight functions and the radial moment identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, i0e, k0e

from tgcs.completeness import (CanonicalTruncatedWeight, GeneralWeight, MLWeight,
                               WrightWeight, moment_check, quadrature_improper,
                               weight_eval, weight_radial_moment)
from tgcs.gseq import AuxFunction, G1
from tgcs.specfun import QuadratureError
from tgcs.states import INFINITE, DivergenceError

EPS = float(np.finfo(float).eps)


class TestQuadratureImproper:
    def test_exponential(self):
        res = quadrature_improper(lambda u: math.exp(-u))
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_integrable_power_singularity(self):
        res = quadrature_improper(lambda u: math.exp(-u) / math.sqrt(u))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_gaussian(self):
        res = quadrature_improper(lambda u: math.exp(-u * u))
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(QuadratureError):
            quadrature_improper(lambda u: bad if 1.0 < u < 2.0 else math.exp(-u))

    def test_tolerance_below_rounding_raises(self):
        # the error estimate never falls below the rounding floor eps * |sum|
        with pytest.raises(QuadratureError) as exc:
            quadrature_improper(lambda u: math.exp(-u), tol=1e-20)
        assert exc.value.value == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(QuadratureError):
            MLWeight(1.0, 1.0).cancelled_moment(2, 1e-20)


class TestWeightEval:
    def test_canonical_ml_limit_is_constant(self):
        # alpha = beta = 1 collapses to the flat canonical density 1/pi
        w = MLWeight(1.0, 1.0, INFINITE)
        for u in [0.1, 1.0, 10.0, 100.0]:
            assert weight_eval(w, u) == pytest.approx(1.0 / math.pi, rel=1e-11)

    def test_canonical_truncated_odd_k_goes_negative(self):
        # k = 1 at u = 2: pi^-1 e^-2 (1 - 2) < 0; the known sign defect
        w = CanonicalTruncatedWeight(1)
        assert weight_eval(w, 2.0) == pytest.approx(
            math.exp(-2.0) * (1.0 - 2.0) / math.pi, rel=1e-13)
        assert weight_eval(w, 2.0) < 0

    def test_ml_truncated_hand_value(self):
        # (1/(pi*alpha)) u^(beta/alpha - 1) e^{-u^(1/alpha)} * partial series
        w = MLWeight(0.5, 0.5, 3)
        u = 1.0
        series = sum(u ** n / math.gamma(0.5 * n + 0.5) for n in range(4))
        expected = (1.0 / (math.pi * 0.5)) * math.exp(-1.0) * series
        assert weight_eval(w, u) == pytest.approx(expected, rel=1e-12)
        assert weight_eval(w, u) > 0

    def test_positive_on_log_grid(self):
        weights = [MLWeight(1.0, 1.0, INFINITE), MLWeight(0.5, 0.5, 10),
                   MLWeight(0.1, 0.1, 20), WrightWeight(0.5, 0.5, 10),
                   GeneralWeight(AuxFunction(1.0, 2.0, 1.0), G1(1.0, 2.0, 1.0),
                                 INFINITE)]
        for w in weights:
            for u in np.geomspace(1e-4, 1e2, 200):
                assert weight_eval(w, u) >= 0.0

    # U is finite where F underflows and T overflows: log space, not a 0
    @given(st.floats(1e-3, 300.0))
    @settings(max_examples=30, deadline=None)
    def test_ml_half_matches_closed_form(self, u):
        # E_{1/2,1/2}(u) = 1/sqrt(pi) + u e^(u^2) erfc(-u); ln F and ln T are each
        # of size u^2 and rounded to eps u^2 before they cancel
        exact = 2.0 / math.pi * (math.exp(-u * u) / math.sqrt(math.pi) + u * erfc(-u))
        assert weight_eval(MLWeight(0.5, 0.5), u) == pytest.approx(
            exact, rel=1e-12 + 4 * EPS * u * u)

    @pytest.mark.parametrize("u", np.geomspace(1e-3, 1e6, 19))
    def test_wright_unit_matches_bessel_product(self, u):
        # W_{1,1}(u) = I0(2 sqrt u), Z(u) = 2 K0(2 sqrt u)
        x = 2.0 * math.sqrt(u)
        assert weight_eval(WrightWeight(1.0, 1.0), u) == pytest.approx(
            2.0 / math.pi * i0e(x) * k0e(x), rel=1e-12)

    def test_wright_half_at_large_u(self):
        # mpmath at 40 digits; Z(1e4) ~ e^-877 underflows on its own
        assert weight_eval(WrightWeight(0.5, 0.5), 1e4) == pytest.approx(
            0.012409918059686, rel=1e-12)

    def test_series_past_term_budget_is_refused(self):
        # E_{1/2,1/2}(2000) needs about 8e6 terms
        with pytest.raises(DivergenceError):
            weight_eval(MLWeight(0.5, 0.5), 2000.0)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            weight_eval(MLWeight(1.0, 1.0), 0.0)


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


class TestRadialMoment:
    def test_uncancelled_route_matches_target_for_ml(self):
        w = MLWeight(0.5, 0.5, INFINITE)
        for n in range(4):
            assert weight_radial_moment(w, n) == pytest.approx(
                w.moment_target(n), rel=1e-7)
