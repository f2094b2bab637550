"""Generating sequences, the Mellin link, and the asymptotic-scale bookkeeping."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcs.gseq import (AsymptoticFamily, AsymptoticTerm, AuxFunction, Factorial,
                       G1, GSequence, MLGamma, Table, WrightProduct, _VARIANTS,
                       mellin_transform, verify_mellin_link)
from tgcs.specfun import QuadratureError
from tgcs.states import random_state_spec
from tgcs.statistics import p_asymptotic


def reference_log_g(seq, n: int) -> float:
    """The scalar closed forms ln g(n), one Python float at a time."""
    if isinstance(seq, Factorial):
        return math.lgamma(n + 1)
    if isinstance(seq, MLGamma):
        return math.lgamma(seq.alpha * n + seq.beta)
    if isinstance(seq, WrightProduct):
        return math.lgamma(n + 1) + math.lgamma(seq.lam * n + seq.mu)
    if isinstance(seq, G1):
        s = (n + seq.nu + 1.0) / seq.rho
        return -math.log(seq.rho) - s * math.log(seq.w) + math.lgamma(s)
    return math.log(seq.values[n])


def mellin_closed_form(f: AuxFunction, s: float) -> float:
    """rho^-1 w^(-(s+nu)/rho) Gamma((s+nu)/rho), the exact transform of f at any s."""
    t = (s + f.nu) / f.rho
    return math.exp(-math.log(f.rho) - t * math.log(f.w) + math.lgamma(t))


sequences = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_state_spec(np.random.default_rng(seed),
                                       allow_infinite=False).seq),
    st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40).map(
        lambda values: Table(tuple(values))))


class TestSequenceValues:
    def test_factorial(self):
        seq = Factorial()
        assert [seq.g(n) for n in range(5)] == pytest.approx([1, 1, 2, 6, 24])

    def test_ml_gamma(self):
        seq = MLGamma(0.5, 0.5)
        # Gamma(n/2 + 1/2): sqrt(pi), 1, sqrt(pi)/2, 2, ...
        assert seq.g(0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert seq.g(1) == pytest.approx(1.0, rel=1e-14)
        assert seq.g(2) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)

    def test_wright_product(self):
        seq = WrightProduct(1.0, 1.0)
        # n! * Gamma(n+1) = (n!)^2
        for n in range(6):
            assert seq.g(n) == pytest.approx(math.factorial(n) ** 2, rel=1e-13)

    def test_g1_reduces_to_factorial(self):
        seq = G1(nu=0.0, rho=1.0, w=1.0)
        for n in range(10):
            assert seq.g(n) == pytest.approx(math.factorial(n), rel=1e-13)

    def test_table(self):
        seq = Table((1.0, 2.0, 6.5))
        assert seq.g(2) == pytest.approx(6.5, rel=1e-15)
        with pytest.raises(IndexError):
            seq.g(3)

    def test_log_g_stays_finite_past_overflow(self):
        # 300! overflows a double; the log form must not
        assert math.isfinite(Factorial().log_g(300))
        assert math.isfinite(WrightProduct(2.0, 1.0).log_g(300))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MLGamma(0.0, 1.0)
        with pytest.raises(ValueError):
            WrightProduct(1.0, -1.0)
        with pytest.raises(ValueError):
            G1(nu=-0.5, rho=1.0, w=1.0)
        with pytest.raises(ValueError):
            Table(())
        with pytest.raises(ValueError):
            Table((1.0, -2.0))
        with pytest.raises(ValueError):
            Factorial().g(-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (MLGamma, "alpha"), (MLGamma, "beta"), (WrightProduct, "lam"),
        (WrightProduct, "mu"), (G1, "nu"), (G1, "rho"), (G1, "w"),
        (Table, "values"), (AuxFunction, "nu"), (AuxFunction, "rho"), (AuxFunction, "w"),
    ])
    def test_non_finite_parameters_rejected(self, make, field, bad):
        # NaN fails every comparison, so x <= 0 alone would let it through
        params = {"alpha": 1.0, "beta": 1.0, "lam": 1.0, "mu": 1.0, "nu": 0.5,
                  "rho": 1.0, "w": 1.0, "values": (1.0, bad, 2.0)}
        params = {f.name: params[f.name] for f in fields(make)}
        if field != "values":
            params[field] = bad
        with pytest.raises(ValueError):
            make(**params)


class TestLogGArray:
    @given(sequences, st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_closed_forms_bit_for_bit(self, seq, size):
        if isinstance(seq, Table):
            size = len(seq.values)
        reference = [reference_log_g(seq, n) for n in range(size)]
        assert seq.log_g_array(np.arange(size)).tolist() == reference
        assert [seq.log_g(n) for n in range(size)] == reference

    @given(sequences)
    @settings(max_examples=30, deadline=None)
    def test_index_errors_on_scalar_and_array_paths(self, seq):
        with pytest.raises(ValueError):
            seq.log_g(-1)
        with pytest.raises(ValueError):
            seq.log_g_array(np.array([0, -1]))
        if isinstance(seq, Table):
            end = len(seq.values)
            with pytest.raises(IndexError):
                seq.log_g(end)
            with pytest.raises(IndexError):
                seq.log_g_array(np.arange(end + 1))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seq", [
        Factorial(),
        MLGamma(0.5, 1.5),
        WrightProduct(2.0, 0.3),
        G1(1.0, 2.0, 0.7),
        Table((1.0, 3.0, 10.0)),
    ])
    def test_round_trip(self, seq):
        assert GSequence.from_json(json.loads(json.dumps(seq.to_json()))) == seq

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            GSequence.from_json({"variant": "mystery"})
        with pytest.raises(ValueError):
            GSequence.from_json({"variant": ["g1"]})

    def test_every_sequence_class_has_a_variant(self):
        assert {cls.variant: cls for cls in GSequence.__subclasses__()} == _VARIANTS

    def test_json_text(self):
        assert [json.dumps(s.to_json()) for s in (Factorial(), G1(1.0, 2.0, 0.7),
                                                   Table((1.0, 3.0)))] == [
            '{"variant": "factorial"}', '{"variant": "g1", "nu": 1.0, "rho": 2.0, "w": 0.7}',
            '{"variant": "table", "values": [1.0, 3.0]}']

    def test_from_json_contract(self):
        # extra keys are ignored; a missing key, a non-object: typed errors
        assert GSequence.from_json(
            {"variant": "ml_gamma", "alpha": 0.5, "beta": 1.0, "k": 3}) == MLGamma(0.5, 1.0)
        with pytest.raises(KeyError):
            GSequence.from_json({"variant": "ml_gamma", "alpha": 0.5})
        for obj in ([1.0], "g1", None):
            with pytest.raises(AttributeError):
                GSequence.from_json(obj)

    def test_table_values_become_a_tuple(self):
        table = GSequence.from_json({"variant": "table", "values": [1.0, 2.0]})
        assert table.values == (1.0, 2.0) and hash(table) == hash(Table((1.0, 2.0)))


class TestAuxFunction:
    def test_closed_form_matches_quadrature(self):
        f = AuxFunction(nu=1.5, rho=0.8, w=1.3)
        for s in [1.0, 2.5, 5.0]:
            assert mellin_transform(f, s) == pytest.approx(
                mellin_closed_form(f, s), rel=1e-8)

    @given(nu=st.floats(0.0, 2.0), rho=st.floats(0.5, 2.0), w=st.floats(0.5, 2.0),
           s=st.floats(1.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_transform_matches_closed_form(self, nu, rho, w, s):
        f = AuxFunction(nu=nu, rho=rho, w=w)
        assert mellin_transform(f, s) == pytest.approx(mellin_closed_form(f, s), rel=1e-10)

    def test_default_is_exponential(self):
        f = AuxFunction()
        # Mellin transform of e^-u is Gamma(s)
        for s in [1.0, 3.0, 6.0]:
            assert mellin_transform(f, s) == pytest.approx(math.gamma(s), rel=1e-13)

    def test_matching_sequence_is_the_transform_shifted(self):
        # G1's g(n) is the transform at s = n + 1 (TestMellinLink checks the values)
        assert AuxFunction(nu=0.5, rho=1.5, w=2.0).matching_sequence() == G1(0.5, 1.5, 2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AuxFunction(rho=0.0)
        with pytest.raises(ValueError):
            AuxFunction(nu=-1.0)

    @pytest.mark.parametrize("s", [0.5, math.nan, math.inf])
    def test_rejects_s_outside_the_domain(self, s):
        with pytest.raises(ValueError):
            mellin_transform(AuxFunction(), s)

    @pytest.mark.parametrize("f", [
        # the decay starts near t = -2.6e4 and the tail e^(1e-7 t) runs on to t = -6e8:
        # 1.2e9 nodes, past the node budget.  A window clipped to +-700 summed zeros to 0;
        # the transform, about e^16, waits on a closed-form left tail
        AuxFunction(1e-7 - 1.0, 0.0135, 6.6e151),
        # the decay starts near t = 3e23: past the node budget, as is its transform,
        # e^(6.8e20), past the double range; a window clipped to +-700 gave 1808
        AuxFunction(-0.9981854272234484, 4.661671551239021e-22, 3.7527053758921126e-58),
        # Gamma(1e300) 1e300 overflows: the window runs to t = 7e300, past the node budget
        AuxFunction(0.0, 1e-300, 1.0),
        # rho^-1 = inf leaves a NaN end and no window
        AuxFunction(0.0, 5e-324, 1.0)])
    def test_window_that_loses_part_of_the_integrand_is_refused(self, f):
        with pytest.raises(QuadratureError):
            mellin_transform(f, 1.0)

    def test_window_past_the_node_budget_is_refused_before_sampling(self, monkeypatch):
        # nu + 1 = 0.01 puts the left end at t = -6000 and rho = 500 the step at 0.001:
        # 6e6 nodes.  A window clipped to t = -700 sampled 1.4e6 nodes before its refusal
        calls = []
        monkeypatch.setattr(AuxFunction, "on_log_axis", lambda self, t, s: calls.append(t))
        with pytest.raises(QuadratureError, match="a pass of more than"):
            mellin_transform(AuxFunction(-0.99, 500.0, 1.0), 1.0)
        assert calls == []

    def test_cliff_narrower_than_half_a_unit_is_resolved(self):
        # the cliff e^(rho t) is 1/rho = 0.006 wide: rows started at step 0.5 met tol
        # 1e-8 after a few halvings that had not resolved it, 2.2e-7 off
        f, s = AuxFunction(-0.9762683246909462, 166.21739245408034, 2.0071097434714034e-14), \
            1.0421724632598304
        assert mellin_transform(f, s) == pytest.approx(mellin_closed_form(f, s), rel=1e-12)

    @pytest.mark.parametrize("w", [1e295, 1e300])
    def test_integrand_at_the_bottom_of_the_double_range_is_computed(self, w):
        # the exact 1/w, from rows shifted by their largest ln f.  Summed as values, the
        # first row peaked below the range where rounding is relative, and the second
        # peaked 9 below t = -700, where a clipped window cut it off
        assert mellin_transform(AuxFunction(0.0, 1.0, w), 1.0) == pytest.approx(
            1.0 / w, rel=1e-14)

    @pytest.mark.parametrize("nu, rho, w, s", [
        (-0.9957395055897837, 0.02446003355400216, 21491930561.54124, 1.0),
        (-0.2653007158097249, 0.0295140987685424, 277239302667.0013, 1.0232740849674364)])
    def test_decay_onset_left_of_t_minus_700_is_computed(self, nu, rho, w, s):
        # the decay sets in near t = -973 and -893, where every node of a window clipped
        # to t = -700 underflowed and the transforms, 3.445 and 2.5e-268, read 0.0
        f = AuxFunction(nu, rho, w)
        assert mellin_transform(f, s) == pytest.approx(mellin_closed_form(f, s), rel=1e-12)

    def test_overflowing_integrand_is_refused_without_a_warning(self):
        # f u^2 at u = e^t: e^(2.5 t - 0.01 e^(0.02 t)) peaks near e^1055 at t = 470, so the
        # transform lies outside the double range (pytest turns every warning into an error)
        with pytest.raises(QuadratureError, match="outside the double range"):
            mellin_transform(AuxFunction(0.5, 0.02, 1e-2), 2.0)

    @given(nu=st.floats(), rho=st.floats(), w=st.floats(), s=st.floats())
    @example(nu=0.0, rho=1.0, w=1e300, s=1.0)
    @example(nu=-0.9981854272234484, rho=4.661671551239021e-22, w=3.7527053758921126e-58,
             s=1.0)
    @example(nu=0.5, rho=0.02, w=1e-2, s=2.0)
    @example(nu=0.0, rho=1e-300, w=1.0, s=1.0)
    @example(nu=0.0, rho=5e-324, w=1.0, s=1.0)
    @example(nu=0.0, rho=1.0, w=7.719248915014685e-293, s=19550829470398.0)  # found by it
    @example(nu=0.0, rho=1.0, w=1e295, s=1.0)
    # a step of 1/(2 rho) asks for 2e302 nodes, a count that wraps to a negative int
    @example(nu=3.1277770418351336e16, rho=1.8159042979229847e286, w=3.1277770418351336e16,
             s=1.6650223896551548e16)
    @settings(max_examples=300, deadline=None)
    def test_transform_is_finite_or_refused(self, nu, rho, w, s):
        # a ValueError where f or s is outside its domain; else a QuadratureError or a
        # finite value >= 0, and never a warning (pytest makes each an error)
        if not (0 < rho < math.inf and 0 < w < math.inf and -1 < nu < math.inf):
            with pytest.raises(ValueError):
                AuxFunction(nu, rho, w)
            return
        f = AuxFunction(nu, rho, w)
        if not 1 <= s < math.inf:
            with pytest.raises(ValueError):
                mellin_transform(f, s)
            return
        try:
            value = mellin_transform(f, s)
        except QuadratureError:
            return
        assert math.isfinite(value) and value >= 0.0


class TestMellinLink:
    def test_factorial_link_passes(self):
        rep = verify_mellin_link(AuxFunction(), Factorial(), 8, 1e-8)
        assert rep.passed
        assert rep.max_residual <= 1e-8

    def test_matched_g1_link_passes(self):
        f = AuxFunction(nu=1.5, rho=0.8, w=1.3)
        rep = verify_mellin_link(f, f.matching_sequence(), 6, 1e-8)
        assert rep.passed

    def test_mismatched_sequence_fails(self):
        # negative control: the exponential density does not generate Gamma(2n+1)
        rep = verify_mellin_link(AuxFunction(), MLGamma(2.0, 1.0), 4, 1e-6)
        assert not rep.passed

    @given(nu=st.floats(0.0, 2.0), rho=st.floats(0.5, 2.0), w=st.floats(0.5, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_link_holds_for_random_parameters(self, nu, rho, w):
        f = AuxFunction(nu=nu, rho=rho, w=w)
        rep = verify_mellin_link(f, f.matching_sequence(), 4, 1e-6)
        assert rep.passed


class TestAsymptoticFamily:
    def test_ordering_accepted(self):
        AsymptoticFamily((
            AsymptoticTerm(c=1.0, nu=0.0, w=1.0, rho=1.0, l=1),
            AsymptoticTerm(c=0.5, nu=0.0, w=1.0, rho=1.0, l=0),
            AsymptoticTerm(c=2.0, nu=1.0, w=1.0, rho=1.0),
            AsymptoticTerm(c=1.0, nu=0.0, w=2.0, rho=1.0),
            AsymptoticTerm(c=1.0, nu=0.0, w=1.0, rho=2.0),
        ))

    def test_ordering_violations_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 1.0, 2.0),
                              AsymptoticTerm(1.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 2.0, 1.0),
                              AsymptoticTerm(1.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            AsymptoticFamily((AsymptoticTerm(1.0, 1.0, 1.0, 1.0),
                              AsymptoticTerm(1.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError):  # l must strictly decrease on full tie
            AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 1.0, 1.0, 0),
                              AsymptoticTerm(1.0, 0.0, 1.0, 1.0, 0)))
        with pytest.raises(ValueError):
            AsymptoticFamily(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c", "nu", "w", "rho", "l"])
    def test_non_finite_parameters_rejected(self, field, bad):
        with pytest.raises(ValueError):
            AsymptoticTerm(**{"c": 1.0, "nu": 0.5, "w": 1.0, "rho": 1.0, "l": 1, field: bad})

    def test_non_integer_log_power_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticTerm(1.0, 0.0, 1.0, 1.0, l=1.5)

    def test_leading_index_skips_zero_coefficients(self):
        fam = AsymptoticFamily((
            AsymptoticTerm(c=0.0, nu=0.0, w=1.0, rho=1.0),
            AsymptoticTerm(c=3.0, nu=1.0, w=1.0, rho=1.0),
        ))
        assert fam.leading_index() == 1

    def test_all_zero_coefficients_rejected(self):
        fam = AsymptoticFamily((AsymptoticTerm(c=0.0, nu=0.0, w=1.0, rho=1.0),))
        with pytest.raises(ValueError):
            fam.leading_index()

    def test_leading_term_matches_stirling_for_exponential(self):
        # f = e^-u has g(n) = n!; the scale formula must track 1/n! by Stirling
        fam = AsymptoticFamily((AsymptoticTerm(c=1.0, nu=0.0, w=1.0, rho=1.0),))
        for n in [20, 40, 60]:
            ratio = p_asymptotic(fam, n, 1.0, 1.0) * math.factorial(n)
            assert ratio == pytest.approx(1.0, rel=0.01)

    def test_leading_term_input_validation(self):
        fam = AsymptoticFamily((AsymptoticTerm(c=1.0, nu=0.0, w=1.0, rho=1.0, l=1),))
        with pytest.raises(ValueError):
            p_asymptotic(fam, 9, 1.0, 1.0)
        with pytest.raises(ValueError):  # ln ln(n/rho) needs n/rho > 1
            p_asymptotic(AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 1.0, 40.0, l=1),)),
                         30, 1.0, 1.0)
