"""Mandel Q, sign classification, zero crossing, correlation and asymptotics."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcs.gseq import (AsymptoticFamily, AsymptoticTerm, Factorial, G1, MLGamma, Table,
                       WrightProduct)
from tgcs.specfun import mittag_leffler, wright
from tgcs.states import (ExcitationDistribution, INFINITE, MAX_TERMS, StateSpec,
                         excitation_distribution, random_state_spec)
from tgcs.statistics import (Regime, SmallLabelSign, UndefinedAtOriginError,
                             correlation_g2, mandel_q,
                             mandel_q2_closed_form, mandel_q_closed_form,
                             number_moments, p_asymptotic, q2_zero_crossing,
                             q_large_label_approx, q_small_label_sign)


class TestNumberMoments:
    def test_kronecker(self):
        dist = ExcitationDistribution(np.array([1.0, 0.0, 0.0]), 1.0)
        assert number_moments(dist) == (0.0, 0.0)

    def test_poisson_one(self):
        dist = excitation_distribution(StateSpec(Factorial(), INFINITE, 1.0))
        mean, m2 = number_moments(dist)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert m2 == pytest.approx(2.0, abs=1e-12)

    def test_two_point(self):
        dist = ExcitationDistribution(np.array([0.5, 0.5]), 1.0)
        assert number_moments(dist) == pytest.approx((0.5, 0.5))


class TestMandelQ:
    def test_canonical_infinite_is_poissonian(self):
        for z in [0.3, 1.0, 1.7 + 0.3j, 5.0]:
            rep = mandel_q(StateSpec(Factorial(), INFINITE, z))
            assert abs(rep.q) <= 1e-12
            assert rep.regime is Regime.POISSONIAN

    def test_k1_closed_form(self):
        rep = mandel_q(StateSpec(Factorial(), 1, 1.0))
        assert rep.q == pytest.approx(-0.5, abs=1e-13)
        assert rep.regime is Regime.SUB_POISSONIAN

    def test_undefined_at_origin(self):
        with pytest.raises(UndefinedAtOriginError):
            mandel_q(StateSpec(Factorial(), 4, 0.0))
        with pytest.raises(UndefinedAtOriginError):
            mandel_q_closed_form(Factorial(), 4, 0.0)

    def test_zero_mean_count_is_undefined(self):
        # k = 0, and a label whose |z|^2 underflows to 0: the mean count is 0
        for spec in [StateSpec(Factorial(), 0, 1.0), StateSpec(MLGamma(0.5, 0.5), 6, 1e-200),
                     StateSpec(Factorial(), INFINITE, 1e-200j)]:
            with pytest.raises(UndefinedAtOriginError):
                mandel_q(spec)
            with pytest.raises(UndefinedAtOriginError):
                correlation_g2(spec)

    def test_canonical_truncated_boundary_is_negative(self):
        # g(0)g(2)/g(1)^2 = 2 exactly; the k=2 truncation stays sub-poissonian
        for u in [0.01, 0.5, 1.0, 10.0]:
            assert mandel_q2_closed_form(Factorial(), u) < 0
        assert mandel_q(StateSpec(Factorial(), 2, 1.0)).q < 0

    def test_closed_forms_cross_validate(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            spec = random_state_spec(rng, allow_infinite=False)
            if spec.u == 0 or spec.k < 1:
                continue
            q_m = mandel_q(spec).q
            q_c = mandel_q_closed_form(spec.seq, int(spec.k), spec.u)
            # both routes carry a ~1e-16*(1+u) absolute cancellation floor
            assert abs(q_m - q_c) <= 1e-10 * max(abs(q_c), 1e-3 * (1.0 + spec.u))

    def test_k2_rational_form_agrees(self):
        for seq in [Factorial(), MLGamma(0.5, 0.5), WrightProduct(1.3, 0.7)]:
            for u in [0.1, 1.0, 10.0]:
                a = mandel_q2_closed_form(seq, u)
                b = mandel_q_closed_form(seq, 2, u)
                assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(a)))

    @pytest.mark.parametrize("seq", [MLGamma(200.0, 1.0), MLGamma(0.01, 300.0)])
    def test_k2_rational_form_past_the_range_of_g(self, seq):
        # g(1) = Gamma(201), and g(0) = Gamma(300), are past the double range:
        # this was a bare OverflowError from GSequence.g
        for u in [0.1, 1.0, 10.0]:
            assert mandel_q2_closed_form(seq, u) == pytest.approx(
                mandel_q_closed_form(seq, 2, u), abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_k1_always_negative(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_state_spec(rng, allow_infinite=False)
        if spec.u == 0:
            return
        spec1 = StateSpec(spec.seq, 1, spec.z)
        assert mandel_q(spec1).q < 0

    def test_limit_at_large_label_is_minus_one(self):
        for seq in [Factorial(), MLGamma(0.5, 0.5)]:
            q = mandel_q(StateSpec(seq, 8, 1e3)).q
            assert q == pytest.approx(-1.0, abs=1e-2)


class TestSmallLabelSign:
    def test_ml_half_half_positive(self):
        # Gamma(1/2)Gamma(3/2)/Gamma(1)^2 = pi/2 < 2
        assert q_small_label_sign(MLGamma(0.5, 0.5), 5) is SmallLabelSign.POSITIVE

    def test_wright_always_negative(self):
        for lam, mu in [(0.5, 0.5), (1.0, 1.0), (0.1, 3.0), (4.0, 0.2)]:
            assert q_small_label_sign(WrightProduct(lam, mu), 5) is SmallLabelSign.NEGATIVE

    def test_canonical_boundary_k2(self):
        assert q_small_label_sign(Factorial(), 2) is SmallLabelSign.NEGATIVE

    def test_canonical_double_boundary_defers(self):
        # factorial: both g-ratios sit exactly at their boundary values
        assert q_small_label_sign(Factorial(), 4) is SmallLabelSign.DEPENDS_ON_HIGHER_ORDER

    def test_table_boundary_resolved_by_third_ratio(self):
        # first ratio exactly 2, third ratio 2 < 3 -> positive
        seq = Table((1.0, 1.0, 2.0, 4.0, 24.0))
        assert q_small_label_sign(seq, 3) is SmallLabelSign.POSITIVE

    def test_agrees_with_q_at_small_label(self):
        for seq in [MLGamma(0.5, 0.5), MLGamma(2.0, 1.0),
                    WrightProduct(0.5, 0.5), G1(0.5, 1.5, 1.0)]:
            label = q_small_label_sign(seq, 6)
            if label is SmallLabelSign.DEPENDS_ON_HIGHER_ORDER:
                continue
            q = mandel_q(StateSpec(seq, 6, 1e-3)).q
            assert (q > 0) == (label is SmallLabelSign.POSITIVE)

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            q_small_label_sign(Factorial(), 1)

    def test_g_past_the_double_range(self):
        # Gamma(201) and Gamma(300) overflow GSequence.g: a bare OverflowError
        # before the ratios were read as sums of ln g
        for k in [2, 5]:
            assert q_small_label_sign(MLGamma(200.0, 1.0), k) is SmallLabelSign.NEGATIVE
        seq = MLGamma(0.01, 300.0)
        assert q_small_label_sign(seq, 6) is SmallLabelSign.POSITIVE
        assert mandel_q(StateSpec(seq, 6, 1e-3)).q > 0


@pytest.mark.parametrize("k", [2.5, math.nan, MAX_TERMS, 10 ** 12])
@pytest.mark.parametrize("helper", [
    lambda k: mandel_q_closed_form(Factorial(), k, 1.0),
    lambda k: q_large_label_approx(Factorial(), k, 2.0),
    lambda k: q_small_label_sign(Factorial(), k),
], ids=["mandel_q_closed_form", "q_large_label_approx", "q_small_label_sign"])
def test_helpers_refuse_a_k_that_is_no_truncation_level(helper, k):
    # 2.5 used to be read as 3 (or g(2.5)), NaN to pass every size check; a k past
    # the term budget used to reach numpy's allocation (7 TiB at 10^12)
    with pytest.raises(ValueError, match="k must be"):
        helper(k)


class TestZeroCrossing:
    def test_factorial_has_none(self):
        assert q2_zero_crossing(Factorial()) is None

    def test_ml_half_half_value(self):
        zeta = q2_zero_crossing(MLGamma(0.5, 0.5))
        assert zeta == pytest.approx(0.32853, abs=1e-5)
        assert abs(mandel_q2_closed_form(MLGamma(0.5, 0.5), zeta ** 2)) <= 1e-10

    def test_sign_pattern_around_crossing(self):
        seq = MLGamma(0.5, 0.5)
        zeta = q2_zero_crossing(seq)
        assert mandel_q(StateSpec(seq, 2, zeta / 2)).q > 0
        assert mandel_q(StateSpec(seq, 2, 2 * zeta)).q < 0

    def test_matches_bisection(self):
        from scipy.optimize import brentq
        for seq in [MLGamma(0.5, 0.5), MLGamma(0.3, 1.0), G1(0.0, 1.5, 1.0)]:
            zeta = q2_zero_crossing(seq)
            if zeta is None:
                continue
            ref = brentq(lambda s: mandel_q2_closed_form(seq, s * s),
                         zeta / 10, zeta * 10, xtol=1e-13)
            assert abs(zeta - ref) <= 1e-9

    def test_g_past_the_double_range(self):
        from scipy.optimize import brentq
        assert q2_zero_crossing(MLGamma(200.0, 1.0)) is None
        # g(0) = Gamma(300) overflows, zeta_0 does not
        seq = MLGamma(0.01, 300.0)
        zeta = q2_zero_crossing(seq)
        ref = brentq(lambda s: mandel_q_closed_form(seq, 2, s * s),
                     zeta / 10, zeta * 10, xtol=1e-13)
        assert abs(zeta - ref) <= 1e-9
        # ln zeta_0 is about 1380 here: refused, where it was an OverflowError
        with pytest.raises(ValueError, match="past the double range"):
            q2_zero_crossing(MLGamma(200.0, 1e6))


class TestLargeLabel:
    def test_factorial_k2_example(self):
        assert q_large_label_approx(Factorial(), 2, 10.0) == pytest.approx(-0.99)

    def test_correction_term_accuracy(self):
        seq, k, z = MLGamma(0.5, 0.5), 5, 100.0
        exact = mandel_q(StateSpec(seq, k, z)).q
        approx = q_large_label_approx(seq, k, z)
        corr_exact = exact + 1.0
        corr_approx = approx + 1.0
        assert abs(corr_exact - corr_approx) / corr_exact <= 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            q_large_label_approx(Factorial(), 1, 10.0)
        with pytest.raises(ValueError):
            q_large_label_approx(Factorial(), 3, 0.5)

    def test_ratio_past_the_double_range_is_refused(self):
        # g(2)/g(1) = Gamma(401)/Gamma(201) is about e^1137: an OverflowError before
        with pytest.raises(ValueError, match="past the double range"):
            q_large_label_approx(MLGamma(200.0, 1.0), 2, 3.0)


class TestCorrelation:
    def test_k1_vanishes(self):
        for seq in [Factorial(), MLGamma(0.5, 2.0)]:
            assert correlation_g2(StateSpec(seq, 1, 1.3)) == 0.0

    def test_canonical_infinite_is_one(self):
        for z in [0.5, 1.0, 3.0]:
            assert correlation_g2(StateSpec(Factorial(), INFINITE, z)) == pytest.approx(
                1.0, abs=1e-10)

    def test_undefined_at_origin(self):
        with pytest.raises(UndefinedAtOriginError):
            correlation_g2(StateSpec(Factorial(), 3, 0.0))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sign_link_with_q(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_state_spec(rng, allow_infinite=False)
        if spec.u == 0 or spec.k < 2:
            return
        q = mandel_q(spec).q
        if abs(q) <= 1e-9:
            return
        g2 = correlation_g2(spec)
        assert (g2 > 1.0) == (q > 0.0)


class TestProbabilityAsymptotics:
    def _exact_p(self, seq, n, u, norm):
        return math.exp(n * math.log(u) - seq.log_g(n)) / norm

    def test_ml_ratio_near_one(self):
        u = 1.0
        norm = mittag_leffler(1.0, 1.0, u)
        exact = self._exact_p(MLGamma(1.0, 1.0), 40, u, norm)
        approx = p_asymptotic(MLGamma(1.0, 1.0), 40, u, norm)
        assert approx / exact == pytest.approx(1.0, abs=0.02)

    def test_wright_ratio_near_one(self):
        u = 1.0
        norm = wright(1.0, 1.0, u)
        exact = self._exact_p(WrightProduct(1.0, 1.0), 30, u, norm)
        approx = p_asymptotic(WrightProduct(1.0, 1.0), 30, u, norm)
        assert approx / exact == pytest.approx(1.0, abs=0.03)

    def test_g1_reduces_to_ml_case(self):
        u, norm = 1.0, math.exp(1.0)
        for n in [15, 25, 40]:
            a = p_asymptotic(G1(0.0, 1.0, 1.0), n, u, norm)
            b = p_asymptotic(MLGamma(1.0, 1.0), n, u, norm)
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("seq", [G1(0.0, 2.0, 1.0), G1(1.0, 1.5, 0.7)])
    def test_g1_ratio_near_one_off_rho_one(self, seq):
        # g1(n) carries 1/rho, so p(n) carries rho: without it the ratio tends to 1/rho
        dist = excitation_distribution(StateSpec(seq, 400, math.sqrt(2.0)))
        approx = p_asymptotic(seq, 160, 2.0, dist.norm)
        assert approx / dist.probs[160] == pytest.approx(1.0, abs=0.01)

    def test_requires_large_n(self):
        with pytest.raises(ValueError):
            p_asymptotic(MLGamma(1.0, 1.0), 5, 1.0, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError):
            p_asymptotic("poisson", 20, 1.0, 1.0)

    @pytest.mark.parametrize("c, nu, w, rho, l", [
        (1.0, 0.0, 1.0, 1.0, 0), (2.0, 0.5, 1.0, 1.5, 0), (0.7, -0.5, 2.0, 0.8, 0),
        (1.0, 0.0, 1.0, 1.0, 1), (1.0, 0.5, 1.0, 1.5, 1), (1.0, -0.5, 1.0, 0.8, 2),
        (1.0, 0.5, 2.0, 1.5, 1), (1.0, -0.5, 0.7, 0.8, 2)])
    def test_family_tends_to_its_exact_mellin_sequence(self, c, nu, w, rho, l):
        # f = c u^-nu e^(-w u^rho) ln^l u has, through x = u^rho, the exact
        # g(n) = c rho^-(l+1) d^l/ds^l [w^-s Gamma(s)] at s = (n+1-nu)/rho; at
        # u = g(n)^(1/n) and norm 1 the exact p(n) is 1
        fam = AsymptoticFamily((AsymptoticTerm(c, nu, w, rho, l),))

        def ratio(n: int) -> float:
            with mpmath.workdps(40):
                s = mpmath.mpf(n + 1 - nu) / rho
                g = c * mpmath.mpf(rho) ** -(l + 1) * mpmath.diff(
                    lambda s: mpmath.mpf(w) ** -s * mpmath.gamma(s), s, l)
                return p_asymptotic(fam, n, float(g ** (mpmath.mpf(1) / n)), 1.0)

        near, far = ratio(80), ratio(320)
        assert abs(far - 1.0) <= 5e-3
        assert abs(far - 1.0) < abs(near - 1.0)

    @pytest.mark.parametrize("n", [200, 250])
    def test_family_past_the_double_range_of_its_lead(self, n):
        # the lead ~ 1/n! underflows past n ~ 171, but p(n) is a double here
        u, norm = 100.0, math.exp(100.0)
        fam = AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 1.0, 1.0),))
        assert p_asymptotic(fam, n, u, norm) == pytest.approx(
            p_asymptotic(G1(0.0, 1.0, 1.0), n, u, norm), rel=1e-12)

    def test_negative_leading_coefficient_refused(self):
        fam = AsymptoticFamily((AsymptoticTerm(0.0, 0.0, 1.0, 1.0, 1),
                                AsymptoticTerm(-1.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match=r"p\(n\) > 0"):
            p_asymptotic(fam, 20, 1.0, 1.0)


def reference_p_asymptotic(kind, n, u, norm):
    """The four large-n forms, one per kind, as written when each kind had its
    own parameter record (G1's with the ln rho of its 1/rho prefactor), the
    family's leading term in log space up to the final exp, its ln^l taken of
    n/(rho w)."""
    log_u = math.log(u)
    two_pi = 2.0 * math.pi
    if isinstance(kind, MLGamma):
        a, b = kind.alpha, kind.beta
        log_p = (n * log_u + a * n + (-a * n - b + 0.5) * math.log(a * n)
                 - 0.5 * math.log(two_pi) - math.log(norm))
    elif isinstance(kind, WrightProduct):
        lam, mu = kind.lam, kind.mu
        log_p = (n * log_u + (lam + 1.0) * n + (-lam * n - mu + 0.5) * math.log(lam)
                 + (-(lam + 1.0) * n - mu) * math.log(n)
                 - math.log(two_pi) - math.log(norm))
    elif isinstance(kind, G1):
        nu, rho, w = kind.nu, kind.rho, kind.w
        e = (n + nu + 1.0) / rho
        x = n / rho
        log_p = (math.log(rho) + e * math.log(w) + n * log_u + x + (-e + 0.5) * math.log(x)
                 - 0.5 * math.log(two_pi) - math.log(norm))
    else:
        t = kind.terms[kind.leading_index()]
        x = n / t.rho
        e = (n + 1.0 - t.nu) / t.rho
        log_p = ((t.l + 1) * math.log(t.rho) + e * math.log(t.w) + n * log_u + x
                 + (-e + 0.5) * math.log(x) - 0.5 * math.log(two_pi) - math.log(t.c)
                 - math.log(norm))
        if t.l > 0:
            log_p -= t.l * math.log(math.log(x / t.w))
    return math.exp(log_p)


_POS = st.floats(0.1, 5.0)
_KINDS = st.one_of(
    st.builds(MLGamma, _POS, _POS), st.builds(WrightProduct, _POS, _POS),
    st.builds(G1, st.floats(0.0, 3.0), _POS, _POS),
    st.builds(lambda c, nu, w, rho, l: AsymptoticFamily((AsymptoticTerm(c, nu, w, rho, l),)),
              _POS, st.floats(-2.0, 2.0), _POS, _POS, st.integers(0, 2)))


def _outcome(f, *args):
    try:
        return f(*args)
    except (OverflowError, ValueError) as exc:  # exp past the double range, ln ln x <= 0
        return type(exc)


@given(_KINDS, st.integers(10, 400), st.floats(1e-3, 1e3), st.floats(1.0, 1e300))
@settings(max_examples=300, deadline=None)
def test_p_asymptotic_takes_the_sequence_itself(kind, n, u, norm):
    # the sequence (or the weight's asymptotic family) is the parameter record:
    # the same values, bit for bit; a p(n) past the double range is refused
    expected = _outcome(reference_p_asymptotic, kind, n, u, norm)
    assert _outcome(p_asymptotic, kind, n, u, norm) == (
        ValueError if expected is OverflowError else expected)


class TestLabelRefusals:
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_closed_forms_refuse_a_non_finite_label(self, u):
        # NaN used to come back as nan, inf as nan after a RuntimeWarning
        with pytest.raises(ValueError, match=r"\|z\|\^2 must be a finite number"):
            mandel_q_closed_form(Factorial(), 3, u)
        with pytest.raises(ValueError, match=r"\|z\|\^2 must be a finite number"):
            mandel_q2_closed_form(Factorial(), u)

    @pytest.mark.parametrize("seq", [Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5)])
    @pytest.mark.parametrize("u", [1e155, 1e200, 1e308])
    def test_q2_rational_form_past_its_overflow(self, seq, u):
        # g1 g2 + g0 g2 u + g0 g1 u^2 overflows: the rational form gave +1
        # (super-poissonian) or nan where Q_2 is about -1
        q = mandel_q2_closed_form(seq, u)
        assert q == pytest.approx(mandel_q_closed_form(seq, 2, u), abs=1e-12)
        assert q == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 1.4e154, complex(0.0, 1e200),
                                   complex(1.2711610061536462e308, 1.2711610061536464e308)])
    def test_large_label_refuses_a_non_finite_u(self, z):
        # nan, -1.0, and an OverflowError from abs(z) ** 2
        with pytest.raises(ValueError, match=r"\|z\|\^2 must be a finite number"):
            q_large_label_approx(Factorial(), 3, z)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -1.0])
    def test_p_asymptotic_refuses_a_bad_label(self, u):
        with pytest.raises(ValueError, match=r"\|z\|\^2 must be"):
            p_asymptotic(MLGamma(1.0, 1.0), 20, u, 1.0)

    def test_p_asymptotic_at_the_origin(self):
        with pytest.raises(UndefinedAtOriginError):
            p_asymptotic(MLGamma(1.0, 1.0), 20, 0.0, 1.0)

    @pytest.mark.parametrize("norm", [0.0, -1.0, math.nan, math.inf])
    def test_p_asymptotic_refuses_a_bad_norm(self, norm):
        with pytest.raises(ValueError, match="norm must be"):
            p_asymptotic(MLGamma(1.0, 1.0), 20, 1.0, norm)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 20.5])
    def test_p_asymptotic_refuses_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match="integer n"):
            p_asymptotic(MLGamma(1.0, 1.0), n, 1.0, 1.0)

    def test_p_asymptotic_refuses_a_probability_past_the_double_range(self):
        # norm = 2 is no normalization at u = 1e150; this used to be an OverflowError
        with pytest.raises(ValueError, match="double range"):
            p_asymptotic(MLGamma(1.0, 1.0), 20, 1e150, 2.0)


_SEQS = st.sampled_from([Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5),
                         G1(0.3, 1.5, 2.0), MLGamma(0.1, 0.1)])
# a k is drawn from all ints and floats; one past _K_EVAL but inside the term
# budget is accepted and not evaluated, to bound the run time
_K = st.one_of(st.integers(), st.floats())
_K_EVAL = 1000
_KINDS_ONE = st.sampled_from([
    MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5), G1(0.3, 1.5, 2.0),
    AsymptoticFamily((AsymptoticTerm(1.0, 0.5, 2.0, 1.5, 1),)),
    AsymptoticFamily((AsymptoticTerm(0.5, -0.5, 0.7, 0.8, 0),))])


def _finite_or_refused(f, *args):
    """f(*args) is finite, or refused with ValueError; a warning fails the test
    (the suite turns warnings into errors)."""
    try:
        value = f(*args)
    except ValueError:
        return
    assert math.isfinite(value), (args, value)


class TestLabelSweep:
    @given(_SEQS, _K, st.floats())
    @settings(max_examples=200, deadline=None)
    def test_mandel_q_closed_form(self, seq, k, u):
        if not _K_EVAL < k < MAX_TERMS:
            _finite_or_refused(mandel_q_closed_form, seq, k, u)

    @given(_SEQS, st.floats())
    @settings(max_examples=200, deadline=None)
    @example(Factorial(), 1e155)
    def test_mandel_q2_closed_form(self, seq, u):
        _finite_or_refused(mandel_q2_closed_form, seq, u)

    @given(_SEQS, _K, st.one_of(st.floats(), st.builds(complex, st.floats(), st.floats())))
    @settings(max_examples=200, deadline=None)
    def test_q_large_label_approx(self, seq, k, z):
        if not _K_EVAL < k < MAX_TERMS:
            _finite_or_refused(q_large_label_approx, seq, k, z)

    @given(_KINDS_ONE, st.floats())
    @settings(max_examples=200, deadline=None)
    def test_p_asymptotic_over_u(self, kind, u):
        _finite_or_refused(p_asymptotic, kind, 40, u, 10.0)

    @given(_KINDS_ONE, st.floats())
    @settings(max_examples=200, deadline=None)
    def test_p_asymptotic_over_norm(self, kind, norm):
        _finite_or_refused(p_asymptotic, kind, 40, 3.0, norm)

    @given(_KINDS_ONE, st.one_of(st.integers(), st.floats()))
    @settings(max_examples=200, deadline=None)
    def test_p_asymptotic_over_n(self, kind, n):
        _finite_or_refused(p_asymptotic, kind, n, 3.0, 10.0)
