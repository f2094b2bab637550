"""State specs, normalizations, distributions, overlaps and Bargmann forms."""

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcs import specfun, states
from tgcs.completeness import MLWeight
from tgcs.gseq import Factorial, G1, GSequence, MLGamma, Table, WrightProduct
from tgcs.specfun import _log_sum_exp, mittag_leffler, wright
from tgcs.states import (DivergenceError, FockVector, INFINITE, MAX_TERMS,
                         IncompatibleSpecError, StateSpec, amplitudes,
                         bargmann_inner_product, bargmann_poly,
                         excitation_distribution, log_normalization,
                         normalization, overlap,
                         random_state_spec)
from tgcs.statistics import correlation_g2, mandel_q


class TestStateSpec:
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

    def test_non_finite_label_rejected(self):
        for z in [math.nan, math.inf, complex(0.0, -math.inf), complex(1.0, math.nan),
                  1e200]:  # |z|^2 past the double range
            for k in [5, INFINITE]:
                with pytest.raises(ValueError):
                    StateSpec(Factorial(), k, z)

    def test_bad_k_rejected(self):
        # -inf used to end in an OverflowError, NaN in int(nan)
        for k in [-1, 2.5, math.nan, -math.inf]:
            with pytest.raises(ValueError, match="k must be"):
                StateSpec(Factorial(), k, 1.0)


_SEQS = st.sampled_from([Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5),
                         G1(0.3, 1.5, 2.0), MLGamma(0.1, 0.1)])


class TestLabelSweep:
    def test_a_k_past_the_term_budget_is_refused_when_built(self):
        # built lazily, then excitation_distribution tried to allocate 7 TiB at 10^12
        for k in [MAX_TERMS, 10 ** 12, float(MAX_TERMS)]:
            with pytest.raises(ValueError, match="k must be"):
                StateSpec(Factorial(), k, 1.0)

    def test_a_modulus_past_the_double_range_is_refused(self):
        # both parts are finite, but abs(z) itself raised OverflowError
        with pytest.raises(ValueError, match="finite number"):
            StateSpec(Factorial(), 3, complex(1.2711610061536462e308, 1.2711610061536464e308))

    @given(_SEQS, st.sampled_from([0, 1, 6, 40, INFINITE]),
           st.one_of(st.floats(), st.builds(complex, st.floats(), st.floats())))
    @settings(max_examples=200, deadline=None)
    @example(Factorial(), 3, complex(1.2711610061536462e308, 1.2711610061536464e308))
    def test_label_gives_a_distribution_or_is_refused(self, seq, k, z):
        # N itself may overflow (it is inf by design then); p(n) and ln N may not
        try:
            spec = StateSpec(seq, k, z)
            dist = excitation_distribution(spec)
        except ValueError:
            return
        assert np.all(np.isfinite(dist.probs)) and math.isfinite(log_normalization(spec))

    @given(_SEQS, st.one_of(st.integers(), st.floats()))
    @settings(max_examples=200, deadline=None)
    def test_any_k_is_a_level_or_refused(self, seq, k):
        # a k past 1000 but inside the term budget is built and not summed
        try:
            spec = StateSpec(seq, k, 1.5)
        except ValueError:
            return
        assert spec.k == INFINITE or 0 <= spec.k < MAX_TERMS
        if spec.k <= 1000:
            assert np.all(np.isfinite(excitation_distribution(spec).probs))
            assert math.isfinite(log_normalization(spec))


class TestConstructorSweep:
    """Any parameters, label and level: refused when built, or a distribution."""

    @given(st.sampled_from([MLGamma, WrightProduct, G1]),
           st.tuples(st.floats(), st.floats(), st.floats()),
           st.sampled_from([1, 6, 40, INFINITE]), st.floats(), st.floats())
    @settings(max_examples=200, deadline=None)
    # ln g past the double range: math.lgamma raised OverflowError inside the row
    @example(MLGamma, (1.0, 2.5599833278516387e305, 0.0), 1, 0.0, 0.0)
    @example(MLGamma, (1e306, 1.0, 0.0), 1, 1.0, 0.0)
    @example(MLGamma, (8.988465674311579e307, 8.98846567431158e307, 0.0), 1, 1.0, 0.0)
    @example(WrightProduct, (8.988465674311579e307, 8.98846567431158e307, 0.0), 1, 1.0, 0.0)
    @example(G1, (30550659169.0, 1.6994368304435877e-298, 1.0), INFINITE, 1.0, 0.0)
    @example(G1, (1272851205.0, 1.6994368304435877e-298, 26535545499.0), INFINITE, 1.0, 0.0)
    def test_spec_gives_a_distribution_or_is_refused(self, cls, params, k, re, im):
        try:
            spec = StateSpec(cls(*params[:len(fields(cls))]), k, complex(re, im))
        except ValueError:  # DivergenceError too
            return
        probs = excitation_distribution(spec).probs
        assert np.all(np.isfinite(probs)) and abs(float(np.sum(probs)) - 1.0) <= 1e-9
        assert math.isfinite(log_normalization(spec))


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

    @pytest.mark.parametrize("u", [709.5, 709.7])
    def test_finite_up_to_the_double_range(self, u):
        # N = e^u is a double up to u = 709.78; it used to read inf from ln N = 709 on
        spec = StateSpec(Factorial(), INFINITE, math.sqrt(u))
        assert normalization(spec) == pytest.approx(math.exp(u), rel=1e-12)


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
    @example(15834523)  # MLGamma at u = 73.16: past the term budget
    @settings(max_examples=60, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        try:
            spec = random_state_spec(rng)
        except DivergenceError:
            # about 0.1% of seeds draw a k = inf spec that needs more than
            # MAX_TERMS terms; it is refused when built, with the typed error
            return
        dist = excitation_distribution(spec)
        assert abs(float(np.sum(dist.probs)) - 1.0) <= 1e-12
        assert np.all(dist.probs >= 0.0)

    def test_spec_past_the_term_budget_is_refused(self):
        with pytest.raises(DivergenceError, match="more than 2097152 terms"):
            random_state_spec(np.random.default_rng(15834523))

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


class TestOneRowPerSpec:
    """A spec builds its distribution once; every one-row reader shares it."""

    SPECS = [StateSpec(MLGamma(0.5, 1.5), INFINITE, 2.0 - 1.0j),
             StateSpec(WrightProduct(0.7, 1.2), 9, 1.3j)]

    def test_row_is_built_once(self, monkeypatch):
        calls = []
        shifted_rows = states._shifted_rows
        monkeypatch.setattr(states, "_shifted_rows",
                            lambda *a: calls.append(a) or shifted_rows(*a))
        spec = StateSpec(MLGamma(0.5, 1.5), INFINITE, 2.0)
        excitation_distribution(spec)
        normalization(spec)
        log_normalization(spec)
        mandel_q(spec)
        correlation_g2(spec)
        assert len(calls) == 1
        excitation_distribution(StateSpec(MLGamma(0.5, 1.5), INFINITE, 2.0))
        assert len(calls) == 2  # the row belongs to the instance, not to a global cache

    @pytest.mark.parametrize("spec", SPECS, ids=["inf", "finite"])
    def test_probabilities_are_read_only(self, spec):
        probs = excitation_distribution(spec).probs
        with pytest.raises(ValueError):
            probs[0] = 0.5
        with pytest.raises(ValueError):
            probs *= 2.0
        assert excitation_distribution(spec).probs[0] == probs[0]

    @pytest.mark.parametrize("spec", SPECS, ids=["inf", "finite"])
    def test_filled_row_changes_no_value(self, spec):
        filled, empty, fresh = (StateSpec(spec.seq, spec.k, spec.z) for _ in range(3))
        excitation_distribution(filled)
        assert "_row" in vars(filled) and "_row" not in vars(empty)
        assert filled == empty and hash(filled) == hash(empty)
        assert repr(filled) == repr(empty)
        a, b = excitation_distribution(filled), excitation_distribution(fresh)
        assert a.probs.tobytes() == b.probs.tobytes() and a.norm == b.norm
        assert log_normalization(filled) == log_normalization(fresh)
        assert mandel_q(filled) == mandel_q(fresh)
        assert correlation_g2(filled) == correlation_g2(fresh)
        if spec.k != INFINITE:
            assert amplitudes(filled).tobytes() == amplitudes(fresh).tobytes()


def _full_terms(seq, log_u, cap=math.inf):
    """ln(u^n / g(n)) over the whole row n = 0..level with no term skipped, the
    level being where the tail rule first holds on one ln g table from n = 0
    that doubles from 64 entries; None if that takes more than cap entries."""
    size = 64
    while size <= cap:
        n = np.arange(size)
        lt = n * log_u - seq.log_g_array(n)
        falling = np.flatnonzero(np.diff(lt) < 0) + 1
        with np.errstate(divide="ignore"):  # an infinite bound where exp rounds to 1
            tail = lt[falling] - np.log1p(-np.exp(lt[falling] - lt[falling - 1]))
        done = falling[tail < states._LOG_TAIL_TOL + np.maximum.accumulate(lt)[falling]]
        if done.size:
            return lt[:done[0] + 1]
        size *= 2
    return None


def _full_row(seq, u):
    """(p, N, ln N) from _full_terms."""
    lt = _full_terms(seq, math.log(u))
    m = lt.max()
    w = np.exp(lt - m)
    total = w.sum()
    log_norm = m + math.log(total)
    return w / total, math.exp(m) * total if log_norm < 709.0 else math.inf, log_norm


_REF_CAP = 1 << 15  # the reference's table size, capped for its cost only


class TestLevelSearch:
    """A k = inf spec searches (n0, level) once, on the scalar ln g, when it is built."""

    PINNED = [StateSpec(G1(0.0, 1.9, 0.6), INFINITE, math.sqrt(300.0)),
              # 664 827 terms, nonzero from n = 582 109
              StateSpec(MLGamma(0.2148531279075242, 2.016686133027092), INFINITE,
                        complex(-2.6957602175846755, -2.339243072207651))]

    def _assert_full_row(self, spec):
        probs, norm, log_norm = _full_row(spec.seq, spec.u)
        assert excitation_distribution(spec).probs.tobytes() == probs.tobytes()
        assert normalization(spec) == norm and log_normalization(spec) == log_norm

    def test_rows_equal_the_full_rows(self):
        for seed in range(3000, 4000):
            try:
                spec = random_state_spec(np.random.default_rng(seed))
            except DivergenceError:  # refused at construction
                continue
            if spec.k == INFINITE and spec.u > 0:
                self._assert_full_row(spec)

    @pytest.mark.parametrize("spec", PINNED, ids=["g1", "ml"])
    def test_pinned_rows_equal_the_full_rows(self, spec):
        self._assert_full_row(spec)

    @given(seq=st.one_of(
               st.just(Factorial()),
               st.builds(MLGamma, st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
               st.builds(WrightProduct, st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
               st.builds(G1, st.floats(0.0, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0))),
           log_u=st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    # |z| = 1 where ln g(1) - ln g(0) is so large that term(0) - 746 rounds to term(0)
    @example(seq=G1(0.0, 1.8828465765993892e-128, 1.0), log_u=0.0)
    # a first ratio that rounds exp to 1: its tail bound is infinite, not a warning
    @example(seq=Factorial(), log_u=-3.660488813882164e-182)
    def test_level_is_the_full_rows_level(self, seq, log_u):
        lt = _full_terms(seq, log_u, _REF_CAP)
        try:
            n0, level = states._span(seq, INFINITE, log_u)
        except DivergenceError:
            assert lt is None
            return
        assert level == len(lt) - 1 if lt is not None else level >= _REF_CAP
        assert 0 <= n0 <= level

    @staticmethod
    def _calls(monkeypatch, cls, name) -> list:
        """The n of each call cls.name(self, n) from here on."""
        seen, f = [], getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, n: (seen.append(n), f(self, n))[1])
        return seen

    @pytest.mark.parametrize("spec", [StateSpec(Factorial(), INFINITE, 2.0),
                                      StateSpec(Factorial(), INFINITE, 12.0), *PINNED],
                             ids=["short", "longer", "g1", "ml"])
    def test_level_search_runs_once_at_construction(self, monkeypatch, spec):
        seen = self._calls(monkeypatch, type(spec.seq), "_log_g")
        fresh = StateSpec(spec.seq, spec.k, spec.z)
        level = fresh._span[1]
        # galloping and bisection on the scalar ln g: a few calls per doubling
        assert not any(isinstance(n, np.ndarray) for n in seen)
        assert 0 < len(seen) <= 11.3 * math.log2(level + 2)
        seen.clear()
        excitation_distribution(fresh)
        log_normalization(fresh)
        # the row reuses the span the spec found: one ln g array, no scalar
        assert len(seen) == 1 and isinstance(seen[0], np.ndarray)

    @pytest.mark.parametrize("spec", [StateSpec(Factorial(), INFINITE, 2.0),
                                      StateSpec(Factorial(), INFINITE, 12.0), *PINNED],
                             ids=["short", "longer", "g1", "ml"])
    def test_row_computes_ln_g_from_n0_to_the_level(self, monkeypatch, spec):
        seen = self._calls(monkeypatch, GSequence, "log_g_array")
        fresh = StateSpec(spec.seq, spec.k, spec.z)
        assert seen == []
        probs = excitation_distribution(fresh).probs
        n0, level = fresh._span
        assert [n.tolist() for n in seen] == [list(range(n0, level + 1))]
        assert len(probs) == level + 1

    def test_search_stops_at_max_terms(self, monkeypatch):
        # Poisson terms at u = 4000 peak at n = 4000 and need about 4500
        monkeypatch.setattr(states, "MAX_TERMS", 4096)
        seen = self._calls(monkeypatch, GSequence, "log_g_array")
        with pytest.raises(DivergenceError, match="more than 4096 terms"):
            states._span(Factorial(), INFINITE, math.log(4000.0))
        assert seen == []

    @pytest.mark.parametrize("spec", PINNED, ids=["g1", "ml"])
    def test_n0_is_exact(self, spec):
        n0, level = spec._span
        assert n0 > 0
        n = np.arange(level + 1)
        lt = n * math.log(spec.u) - spec.seq.log_g_array(n)
        top = lt.max()
        assert lt[n0 - 1] - top <= specfun._LOG_UNDERFLOW < lt[n0] - top


_LOG_U = st.floats(-800.0, 800.0)


class TestShiftedRows:
    """states._shifted_rows, the one kernel behind p(n), N, ln T and the CLI grids."""

    @given(seq=st.sampled_from([Factorial(), MLGamma(0.3, 1.2), WrightProduct(1.5, 0.4),
                                G1(0.5, 2.0, 1.5)]),
           size=st.integers(1, 400), block=st.integers(1, 2000),
           # (n0, ln u of the rows): a table from n0 > 0 serves u > 0 only, so the
           # u = 0 Kronecker rows, ln u = -inf, come with n0 = 0
           case=st.tuples(st.just(0), st.lists(_LOG_U | st.just(-math.inf), min_size=1,
                                               max_size=6))
           | st.tuples(st.integers(1, 40), st.lists(_LOG_U, min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    # rows that all but underflow, the Kronecker row, and a table from n0 > 0 in
    # blocks of one row
    @example(seq=Factorial(), size=400, block=1 << 20, case=(0, [800.0, 5.0]))
    @example(seq=MLGamma(0.3, 1.2), size=30, block=7, case=(0, [-math.inf, 0.0, -math.inf]))
    @example(seq=G1(0.5, 2.0, 1.5), size=400, block=100, case=(40, [-800.0, 300.0, 3.0]))
    def test_rows_are_plain_exp_and_sum_to_ln_t(self, seq, size, block, case):
        n0, log_u = case
        log_g = seq.log_g_array(np.arange(n0, n0 + size))
        with mock.patch.object(specfun, "_BLOCK", block):
            m, w, total = (np.concatenate(x) for x in zip(*states._shifted_rows(
                log_g, n0, log_u)))
        n = np.arange(n0, n0 + size)
        for i, x in enumerate(log_u):
            with np.errstate(invalid="ignore"):  # 0 * -inf at n = 0, where the term is 1/g(0)
                lt = np.where(n > 0, n * x, 0.0) - log_g
            ref = np.zeros(n0 + size)
            ref[n0:] = np.exp(lt - lt.max())
            assert w[i].tobytes() == ref.tobytes() and m[i, 0] == lt.max()
            # ln T against the closed-form Q's 1-D route; the n0 zeros in front move
            # the sum's rounding by an ulp or so, hence 1e-15 of ln T or of 1
            assert m[i, 0] + np.log(total[i, 0]) == pytest.approx(
                _log_sum_exp(lt), rel=1e-15, abs=1e-15)


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
        assert bargmann_poly(phi, seq, zbar) == pytest.approx(
            zbar ** 2 / math.sqrt(seq.g(2)), rel=1e-13)

    def test_empty_vector_is_zero(self):
        # the degree check reads an empty vector as degree 0, which any Table holds
        assert bargmann_poly(FockVector(np.ones(0)), Table((1.0,)), 0.5) == 0j

    def test_linearity(self):
        seq, k = Factorial(), 3
        rng = np.random.default_rng(5)
        f1 = FockVector(rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1))
        f2 = FockVector(rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1))
        mix = FockVector(2.0 * f1.coeffs - 1.5j * f2.coeffs)
        zbar = 0.7 + 0.2j
        assert bargmann_poly(mix, seq, zbar) == pytest.approx(
            2.0 * bargmann_poly(f1, seq, zbar)
            - 1.5j * bargmann_poly(f2, seq, zbar), rel=1e-12)

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

    def test_inner_product_refuses_a_weight_of_another_sequence(self):
        # the weight of Gamma(n/2 + 1/2) paired with n! gave 0.8456 for this unit vector
        v = FockVector(np.full(4, 0.5))
        with pytest.raises(ValueError, match="built for"):
            bargmann_inner_product(v, v, Factorial(), 3, MLWeight(0.5, 0.5, 3))
        # the moments do not depend on the weight's k
        assert bargmann_inner_product(v, v, MLGamma(0.5, 0.5), 3, MLWeight(0.5, 0.5, 1)) == (
            pytest.approx(1.0, rel=1e-12))

    def test_inner_product_on_a_weight_of_small_alpha(self):
        # the moments summed T at every node, which at alpha = 3e-4 needs more than
        # MAX_TERMS terms at the window's top: DivergenceError
        seq, k = MLGamma(3e-4, 0.5), 4
        v = np.random.default_rng(12).normal(size=k + 1)
        psi = FockVector(v / np.linalg.norm(v))
        assert bargmann_inner_product(psi, psi, seq, k, MLWeight(3e-4, 0.5)) == pytest.approx(
            1.0, rel=1e-12)

    def test_inner_product_reproduces_unit_norm_truncated(self):
        seq, k = MLGamma(0.5, 0.5), 3
        w = MLWeight(0.5, 0.5, k)
        rng = np.random.default_rng(11)
        v = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        v = v / np.linalg.norm(v)
        psi = FockVector(v)
        assert bargmann_inner_product(psi, psi, seq, k, w) == pytest.approx(
            1.0, rel=1e-6)
