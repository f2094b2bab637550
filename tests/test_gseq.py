"""Generating sequences, the Mellin link, and the asymptotic-scale bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcs.gseq import (AsymptoticFamily, AsymptoticTerm, AuxFunction, Factorial,
                       G1, GSequence, MLGamma, Table, WrightProduct,
                       asymptotic_leading_term, mellin_transform,
                       verify_mellin_link)
from tgcs.states import random_state_spec


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
        assert GSequence.from_json(seq.to_json()) == seq

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            GSequence.from_json({"variant": "mystery"})


class TestAuxFunction:
    def test_closed_form_matches_quadrature(self):
        f = AuxFunction(nu=1.5, rho=0.8, w=1.3)
        for s in [1.0, 2.5, 5.0]:
            assert mellin_transform(f, s) == pytest.approx(
                f.mellin_closed_form(s), rel=1e-8)

    @given(nu=st.floats(0.0, 2.0), rho=st.floats(0.5, 2.0), w=st.floats(0.5, 2.0),
           s=st.floats(1.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_transform_matches_closed_form(self, nu, rho, w, s):
        f = AuxFunction(nu=nu, rho=rho, w=w)
        assert mellin_transform(f, s) == pytest.approx(f.mellin_closed_form(s), rel=1e-10)

    def test_default_is_exponential(self):
        f = AuxFunction()
        # Mellin transform of e^-u is Gamma(s)
        for s in [1.0, 3.0, 6.0]:
            assert f.mellin_closed_form(s) == pytest.approx(math.gamma(s), rel=1e-13)

    def test_matching_sequence_is_the_transform_shifted(self):
        f = AuxFunction(nu=0.5, rho=1.5, w=2.0)
        seq = f.matching_sequence()
        for n in range(8):
            assert seq.g(n) == pytest.approx(f.mellin_closed_form(n + 1.0), rel=1e-13)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AuxFunction(rho=0.0)
        with pytest.raises(ValueError):
            AuxFunction(nu=-1.0)
        with pytest.raises(ValueError):
            AuxFunction()(0.0)


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
            ratio = asymptotic_leading_term(fam, n) * math.factorial(n)
            assert ratio == pytest.approx(1.0, rel=0.01)

    def test_leading_term_input_validation(self):
        fam = AsymptoticFamily((AsymptoticTerm(c=1.0, nu=0.0, w=1.0, rho=1.0, l=1),))
        with pytest.raises(ValueError):
            asymptotic_leading_term(fam, 1)
        with pytest.raises(ValueError):
            asymptotic_leading_term(
                AsymptoticFamily((AsymptoticTerm(1.0, 0.0, 1.0, 4.0, l=1),)), 3)
