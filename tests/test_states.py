"""State specs, normalizations, distributions, overlaps and Bargmann forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcs.completeness import MLWeight
from tgcs.gseq import Factorial, G1, MLGamma, Table, WrightProduct
from tgcs.specfun import mittag_leffler, wright
from tgcs.states import (DivergenceError, FockVector, INFINITE, MAX_TERMS,
                         IncompatibleSpecError, StateSpec, amplitudes,
                         bargmann_inner_product, bargmann_poly,
                         excitation_distribution, log_normalization,
                         normalization, overlap,
                         random_state_spec)


class TestStateSpec:
    def test_json_round_trip(self):
        for spec in [StateSpec(Factorial(), 5, 1.0 + 2.0j),
                     StateSpec(MLGamma(0.5, 0.5), INFINITE, 0.3 - 0.1j),
                     StateSpec(Table((1.0, 2.0)), 1, 0.0)]:
            assert StateSpec.from_json(spec.to_json()) == spec

    def test_u_is_modulus_squared(self):
        assert StateSpec(Factorial(), 3, 3.0 + 4.0j).u == pytest.approx(25.0)

    def test_table_with_infinite_k_rejected(self):
        with pytest.raises(DivergenceError):
            StateSpec(Table((1.0, 2.0)), INFINITE, 1.0)

    def test_term_budget_is_decided_at_construction(self):
        # MLGamma(1/4, 1) at u = 26.8 sums with 2 091 434 terms, just inside
        # MAX_TERMS; at u = 26.9 the spec used to be built and then fail in the sum
        seq = MLGamma(0.25, 1.0)
        with pytest.raises(DivergenceError):
            StateSpec(seq, INFINITE, math.sqrt(26.9))
        dist = excitation_distribution(StateSpec(seq, INFINITE, math.sqrt(26.8)))
        assert 2_000_000 < len(dist.probs) <= MAX_TERMS
        assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-12

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            StateSpec(Factorial(), -1, 1.0)
        with pytest.raises(ValueError):
            StateSpec(Factorial(), 2.5, 1.0)


class TestNormalization:
    def test_canonical_infinite_is_exp(self):
        for z in [0.5, 1.0 + 1.0j, 3.0]:
            spec = StateSpec(Factorial(), INFINITE, z)
            assert normalization(spec) == pytest.approx(math.exp(spec.u), rel=1e-12)

    def test_ml_infinite_is_mittag_leffler(self):
        spec = StateSpec(MLGamma(0.5, 0.5), INFINITE, 1.3)
        assert normalization(spec) == pytest.approx(
            mittag_leffler(0.5, 0.5, spec.u), rel=1e-11)

    def test_wright_infinite_is_wright(self):
        spec = StateSpec(WrightProduct(0.5, 0.5), INFINITE, 2.0)
        assert normalization(spec) == pytest.approx(
            wright(0.5, 0.5, spec.u), rel=1e-11)

    def test_g1_infinite_identity(self):
        # sum x^n / g1(n) = rho w^((nu+1)/rho) E_{1/rho,(nu+1)/rho}(w^(1/rho) x)
        nu, rho, w = 1.0, 2.0, 1.0
        spec = StateSpec(G1(nu, rho, w), INFINITE, 1.5)
        x = spec.u
        rhs = rho * w ** ((nu + 1) / rho) * mittag_leffler(
            1.0 / rho, (nu + 1) / rho, w ** (1.0 / rho) * x)
        assert normalization(spec) == pytest.approx(rhs, rel=1e-10)

    def test_finite_truncation_partial_sum(self):
        spec = StateSpec(Factorial(), 3, 1.0)
        assert normalization(spec) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_at_origin(self):
        assert normalization(StateSpec(MLGamma(2.0, 0.5), 7, 0.0)) == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-14)


class TestExcitationDistribution:
    def test_kronecker_at_origin(self):
        dist = excitation_distribution(StateSpec(Factorial(), 6, 0.0))
        assert dist.probs[0] == 1.0
        assert np.all(dist.probs[1:] == 0.0)

    def test_canonical_infinite_is_poisson(self):
        spec = StateSpec(Factorial(), INFINITE, 2.0)
        dist = excitation_distribution(spec)
        u = spec.u
        for n in range(10):
            poisson = math.exp(-u) * u ** n / math.factorial(n)
            assert dist.probs[n] == pytest.approx(poisson, rel=1e-11)

    def test_phase_invariance_is_exact(self):
        # p depends on z only through |z|^2 and the code paths use u alone
        r = 1.7
        base = excitation_distribution(StateSpec(MLGamma(0.5, 1.5), 12, r))
        for theta in [0.3, 2.0, -1.1]:
            z = r * complex(math.cos(theta), math.sin(theta))
            rot = excitation_distribution(StateSpec(MLGamma(0.5, 1.5), 12, z))
            assert abs(rot.probs - base.probs).max() <= 1e-15

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_state_spec(rng)
        dist = excitation_distribution(spec)
        assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-12
        assert np.all(dist.probs >= 0.0)

    def test_slow_mittag_leffler_series_is_summed(self):
        # MLGamma(0.2149, 2.0167) at u = 12.74: the terms peak near n = 6.5e5
        spec = random_state_spec(np.random.default_rng(75168))
        assert isinstance(spec.seq, MLGamma) and spec.k == INFINITE
        dist = excitation_distribution(spec)
        assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-12
        # ln E_{a,b}(u) ~ ln(1/a) + (1-b)/a ln u + u^(1/a) (Gorenflo et al.,
        # Mittag-Leffler Functions, Springer), up to terms smaller by e^(-u^(1/a))
        a, b, u = spec.seq.alpha, spec.seq.beta, spec.u
        asymptotic = math.log(1.0 / a) + (1.0 - b) / a * math.log(u) + u ** (1.0 / a)
        assert log_normalization(spec) == pytest.approx(asymptotic, rel=1e-12)

    def test_small_label_decay_rate(self):
        # p(n) ~ (g(0)/g(n)) |z|^(2n) as |z| -> 0
        seq, k, n = MLGamma(0.5, 0.5), 8, 3
        z1, z2 = 1e-3, 1e-4
        p1 = excitation_distribution(StateSpec(seq, k, z1)).probs[n]
        p2 = excitation_distribution(StateSpec(seq, k, z2)).probs[n]
        slope = (math.log(p1) - math.log(p2)) / (math.log(z1) - math.log(z2))
        assert slope == pytest.approx(2 * n, rel=1e-4)

    def test_large_label_concentrates_at_k(self):
        dist = excitation_distribution(StateSpec(WrightProduct(0.5, 0.5), 6, 1e4))
        assert dist.probs[6] > 0.999


class TestAmplitudes:
    def test_moduli_squared_are_probabilities(self):
        spec = StateSpec(MLGamma(1.5, 0.5), 9, 1.2 - 0.7j)
        amp = amplitudes(spec)
        dist = excitation_distribution(spec)
        assert np.abs(amp) ** 2 == pytest.approx(dist.probs, rel=1e-12)

    def test_phases_follow_z(self):
        spec = StateSpec(Factorial(), 5, 1.0j)
        amp = amplitudes(spec)
        # z = i: coefficient phases are i^n
        for n in range(6):
            expected = 1.0j ** n
            assert amp[n] / abs(amp[n]) == pytest.approx(expected, abs=1e-12)

    def test_requires_finite_k(self):
        with pytest.raises(ValueError):
            amplitudes(StateSpec(Factorial(), INFINITE, 1.0))


class TestOverlap:
    def test_self_overlap_is_one(self):
        for spec in [StateSpec(Factorial(), 8, 1.0 + 1.0j),
                     StateSpec(MLGamma(0.5, 0.5), 5, 2.0),
                     StateSpec(Factorial(), INFINITE, 0.7 - 0.2j)]:
            assert overlap(spec, spec) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_infinite_closed_form(self):
        z1, z2 = 1.0 + 0.5j, -0.3 + 0.2j
        a = StateSpec(Factorial(), INFINITE, z1)
        b = StateSpec(Factorial(), INFINITE, z2)
        expected = np.exp(np.conj(z1) * z2 - (abs(z1) ** 2 + abs(z2) ** 2) / 2.0)
        assert overlap(a, b) == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_amplitude_inner_product(self):
        a = StateSpec(WrightProduct(0.5, 1.5), 7, 1.0 + 2.0j)
        b = StateSpec(WrightProduct(0.5, 1.5), 7, -0.5 + 0.3j)
        direct = complex(np.vdot(amplitudes(a), amplitudes(b)))
        assert overlap(a, b) == pytest.approx(direct, rel=1e-11)

    def test_mismatched_specs_rejected(self):
        a = StateSpec(Factorial(), 5, 1.0)
        with pytest.raises(IncompatibleSpecError):
            overlap(a, StateSpec(Factorial(), 6, 1.0))
        with pytest.raises(IncompatibleSpecError):
            overlap(a, StateSpec(MLGamma(1.0, 1.0), 5, 1.0))
        with pytest.raises(IncompatibleSpecError):
            overlap(StateSpec(MLGamma(0.5, 0.5), INFINITE, 1.0),
                    StateSpec(MLGamma(0.5, 0.5), INFINITE, 2.0))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_state_spec(rng, allow_infinite=False)
        other = StateSpec(spec.seq, spec.k,
                          complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        assert abs(overlap(spec, other)) <= 1.0 + 1e-11


class TestBargmann:
    def test_single_fock_component(self):
        # phi = |2> maps to zbar^2 / sqrt(g(2))
        seq, k = MLGamma(0.5, 0.5), 4
        phi = FockVector(np.eye(k + 1)[2])
        zbar = 1.3 - 0.4j
        assert bargmann_poly(phi, seq, k, zbar) == pytest.approx(
            zbar ** 2 / math.sqrt(seq.g(2)), rel=1e-13)

    def test_linearity(self):
        seq, k = Factorial(), 3
        rng = np.random.default_rng(5)
        f1 = FockVector(rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1))
        f2 = FockVector(rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1))
        mix = FockVector(2.0 * f1.coeffs - 1.5j * f2.coeffs)
        zbar = 0.7 + 0.2j
        assert bargmann_poly(mix, seq, k, zbar) == pytest.approx(
            2.0 * bargmann_poly(f1, seq, k, zbar)
            - 1.5j * bargmann_poly(f2, seq, k, zbar), rel=1e-12)

    def test_inner_product_vacuum_canonical(self):
        # Gaussian measure: pi^-1 int e^{-|z|^2} d^2 z = 1
        vac = FockVector([1.0, 0.0, 0.0, 0.0])
        w = MLWeight(1.0, 1.0, INFINITE)
        val = bargmann_inner_product(vac, vac, Factorial(), 3, w)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_inner_product_orthogonal_components(self):
        a = FockVector([1.0, 0.0, 0.0, 0.0])
        b = FockVector([0.0, 1.0, 0.0, 0.0])
        w = MLWeight(1.0, 1.0, INFINITE)
        assert abs(bargmann_inner_product(a, b, Factorial(), 3, w)) <= 1e-12

    def test_inner_product_reproduces_unit_norm_truncated(self):
        seq, k = MLGamma(0.5, 0.5), 3
        w = MLWeight(0.5, 0.5, k)
        rng = np.random.default_rng(11)
        v = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        v = v / np.linalg.norm(v)
        psi = FockVector(v)
        assert bargmann_inner_product(psi, psi, seq, k, w) == pytest.approx(
            1.0, rel=1e-6)
