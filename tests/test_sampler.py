"""Monte-Carlo count sampling: determinism, histogram accuracy, Q estimation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcs import sampler
from tgcs.gseq import Factorial, MLGamma
from tgcs.sampler import _jackknife_stderr_q, _q_from_sums, sample_counts
from tgcs.states import (ExcitationDistribution, StateSpec, excitation_distribution,
                         random_state_spec)
from tgcs.statistics import mandel_q


class TestDeterminism:
    def test_bit_identical_reruns(self):
        dist = excitation_distribution(StateSpec(Factorial(), 20, 1.5))
        a = sample_counts(dist, 10_000, seed=42)
        b = sample_counts(dist, 10_000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        assert a.q_hat == b.q_hat
        assert a.g2_hat == b.g2_hat
        assert a.stderr_q == b.stderr_q

    def test_different_seeds_differ(self):
        dist = excitation_distribution(StateSpec(Factorial(), 20, 1.5))
        a = sample_counts(dist, 10_000, seed=1)
        b = sample_counts(dist, 10_000, seed=2)
        assert not np.array_equal(a.counts, b.counts)


class TestHistogram:
    def test_chunked_draws_equal_one_shot(self):
        # draws are made in chunks; PCG64 gives the same stream either way
        dist = excitation_distribution(StateSpec(Factorial(), 30, 2.0))
        n = (1 << 20) + 3
        assert n > sampler._CHUNK
        rng = np.random.Generator(np.random.PCG64(9))
        cdf = np.cumsum(dist.probs)
        cdf[-1] = 1.0
        ref = np.bincount(np.searchsorted(cdf, rng.random(n), side="right"),
                          minlength=len(cdf))
        assert np.array_equal(sample_counts(dist, n, seed=9).counts, ref)

    def test_total_equals_n_samples(self):
        dist = excitation_distribution(StateSpec(MLGamma(0.5, 0.5), 10, 0.7))
        run = sample_counts(dist, 12_345, seed=3)
        assert int(run.counts.sum()) == 12_345
        assert len(run.counts) == len(dist.probs)

    def test_frequencies_match_probabilities(self):
        dist = excitation_distribution(StateSpec(Factorial(), 30, 1.0))
        n = 1_000_000
        run = sample_counts(dist, n, seed=11)
        freq = run.counts / n
        for p, f in zip(dist.probs, freq):
            band = 4.0 * np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(f - p) <= band

    def test_kronecker_distribution(self):
        dist = ExcitationDistribution(np.array([1.0, 0.0, 0.0]), 1.0)
        run = sample_counts(dist, 1000, seed=5)
        assert run.counts[0] == 1000
        assert run.q_hat is None and run.g2_hat is None and run.stderr_q is None


class TestEstimators:
    def test_q_hat_matches_analytic(self):
        spec = StateSpec(Factorial(), 50, 1.0)
        q_true = mandel_q(spec).q
        run = sample_counts(excitation_distribution(spec), 1_000_000, seed=7)
        assert abs(run.q_hat - q_true) <= 4.0 * run.stderr_q

    def test_super_poissonian_detected(self):
        # small label with first-ratio < 2 gives Q > 0
        spec = StateSpec(MLGamma(0.5, 0.5), 10, 0.1)
        run = sample_counts(excitation_distribution(spec), 1_000_000, seed=9)
        assert run.q_hat > 0

    def test_g2_hat_matches_analytic(self):
        from tgcs.statistics import correlation_g2
        spec = StateSpec(MLGamma(0.5, 0.5), 10, 1.0)
        g2_true = correlation_g2(spec)
        run = sample_counts(excitation_distribution(spec), 1_000_000, seed=13)
        assert run.g2_hat == pytest.approx(g2_true, rel=0.02)

    def test_single_nonzero_draw_has_no_stderr(self):
        # deleting the one nonzero draw leaves the mean at 0, where Q is undefined;
        # this spec and seed used to give a 0/0 NaN (and a RuntimeWarning)
        spec = random_state_spec(np.random.default_rng(1067))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = sample_counts(excitation_distribution(spec), 500, seed=1)
        assert run.counts[:2].tolist() == [499, 1]
        assert run.q_hat == 0.0
        assert run.stderr_q is None
        assert json.loads(json.dumps(run.to_json(), allow_nan=False))["stderr_q"] is None

    @pytest.mark.parametrize("seed", [0, 6, 8, 9])
    def test_two_draws_have_no_stderr(self, seed):
        # each deletion leaves one draw, whose variance is 0/0: this used to
        # give a NaN stderr_q (and a RuntimeWarning) and `NaN` in the JSON
        dist = ExcitationDistribution(np.array([0.0, 0.5, 0.5]), 1.0)
        run = sample_counts(dist, 2, seed)
        assert run.counts.tolist() == [0, 1, 1]
        assert run.q_hat is not None and run.g2_hat is not None
        assert run.stderr_q is None
        assert json.loads(json.dumps(run.to_json(), allow_nan=False))["stderr_q"] is None

    def test_one_draw_has_no_estimates(self):
        # a single draw has no variance: q_hat used to divide by n - 1 = 0
        dist = excitation_distribution(StateSpec(Factorial(), 20, 3.0))
        for seed in range(20):
            run = sample_counts(dist, 1, seed)
            assert int(run.counts.sum()) == 1
            assert run.q_hat is None and run.g2_hat is None and run.stderr_q is None

    def test_single_distinct_value_has_zero_stderr(self):
        # every draw is n = 1: each deletion leaves the same sample
        dist = ExcitationDistribution(np.array([0.0, 1.0, 0.0]), 1.0)
        run = sample_counts(dist, 500, seed=4)
        assert run.counts.tolist() == [0, 500, 0]
        assert run.q_hat == -1.0
        assert run.stderr_q == 0.0

    def test_json_schema(self):
        dist = excitation_distribution(StateSpec(Factorial(), 5, 0.5))
        run = sample_counts(dist, 100, seed=21)
        payload = run.to_json()
        assert set(payload) == {"seed", "n_samples", "counts", "q_hat",
                                "g2_hat", "stderr_q"}
        assert sum(payload["counts"]) == 100

    def test_rejects_bad_sample_count(self):
        dist = excitation_distribution(StateSpec(Factorial(), 5, 0.5))
        with pytest.raises(ValueError):
            sample_counts(dist, 0, seed=1)

    @pytest.mark.parametrize("n_samples", [True, 2.5, 3.0, None])
    def test_rejects_a_non_integer_sample_count(self, n_samples):
        # True ran as 1 draw, 2.5 raised TypeError from range
        dist = ExcitationDistribution(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="n_samples"):
            sample_counts(dist, n_samples, seed=1)

    @pytest.mark.parametrize("n_samples", [sampler.MAX_SAMPLES + 1, 10 ** 12])
    def test_rejects_a_sample_count_past_the_budget(self, monkeypatch, n_samples):
        # 10^12 draws used to be made, about 3 hours of them
        monkeypatch.setattr(np.random, "PCG64", None)  # a draw would fail with TypeError
        dist = ExcitationDistribution(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="n_samples"):
            sample_counts(dist, n_samples, seed=1)

    @pytest.mark.parametrize("seed", [None, 1.5, True])
    def test_rejects_a_seed_that_is_no_integer(self, seed):
        # None drew OS entropy: no run could be repeated from its seed
        dist = ExcitationDistribution(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError, match="seed"):
            sample_counts(dist, 10, seed)

    def test_numpy_integers_are_accepted(self):
        dist = ExcitationDistribution(np.array([0.5, 0.5]), 1.0)
        a = sample_counts(dist, np.int64(50), np.uint32(7))
        b = sample_counts(dist, 50, 7)
        assert np.array_equal(a.counts, b.counts) and a.q_hat == b.q_hat

    @pytest.mark.parametrize("probs", [
        [0.0, 0.0],  # every draw went to the last n
        [0.5, 0.4],
        [0.5, 0.5 + 2e-6],
        [0.5, math.nan, 0.5],  # sampled without a word
        [1.5, -0.5],
        [0.5, math.inf],
        [-math.inf, 1.0],
    ], ids=["all-zero", "sum-low", "sum-high", "nan", "negative", "inf", "minus-inf"])
    def test_rejects_a_probability_vector_that_is_no_pmf(self, probs):
        dist = ExcitationDistribution(np.array(probs), 1.0)
        with pytest.raises(ValueError, match="probabilities"):
            sample_counts(dist, 10, seed=1)

    def test_sum_within_tolerance_is_sampled(self):
        dist = ExcitationDistribution(np.array([0.5, 0.5 - 5e-7]), 1.0)
        assert int(sample_counts(dist, 10, seed=1).counts.sum()) == 10


def _run_by_search(probs, n_samples, seed):
    """The unsorted route the sorted count replaced, kept as its oracle: each draw's
    CDF step by one searchsorted, counted by bincount, chunk by chunk."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    counts = np.zeros(len(probs), dtype=np.int64)
    for start in range(0, n_samples, sampler._CHUNK):
        draws = rng.random(min(sampler._CHUNK, n_samples - start))
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=len(counts))
    values = np.arange(len(counts), dtype=float)
    s1 = float(np.dot(values, counts))
    s2 = float(np.dot(values * values, counts))
    n = float(n_samples)
    if s1 == 0.0 or n_samples < 2:
        return counts, None, None, None
    return (counts, _q_from_sums(s1, s2, n), n * (s2 - s1) / (s1 * s1),
            _jackknife_stderr_q(counts, s1, s2, n))


@st.composite
def pmfs(draw):
    """Probability vectors with leading and trailing zeros, single atoms, and sums
    moved a few units in the last place, so that the cumulative sum can pass 1
    before its last entry."""
    body = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)
                         .filter(lambda w: sum(w) > 0)))
    body /= body.sum()
    top = int(np.argmax(body))
    for _ in range(draw(st.integers(0, 4))):
        body[top] = np.nextafter(body[top], draw(st.sampled_from([0.0, 2.0])))
    return np.concatenate([np.zeros(draw(st.integers(0, 40))), body,
                           np.zeros(draw(st.integers(0, 40)))])


_PAST_ONE = np.append(np.full(9, 1.0 / 9.0), 0.0)  # cumulative sum 1 + 2^-52 at n = 8


class TestSortedCount:
    @given(pmfs(), st.integers(1, 5000), st.integers(0, 2 ** 32 - 1))
    @example(np.array([1.0]), 1, 0)  # a single atom
    @example(np.array([0.0, 0.0, 1.0, 0.0]), 3, 5)
    @example(_PAST_ONE, 5000, 2 ** 32 - 1)
    @example(np.array([0.0, 0.25, 0.5, 0.25, 0.0]), (1 << 20) + 3, 17)  # two chunks
    @settings(max_examples=300, deadline=None)
    def test_matches_the_searchsorted_route(self, probs, n_samples, seed):
        run = sample_counts(ExcitationDistribution(probs, 1.0), n_samples, seed)
        counts, q_hat, g2_hat, stderr_q = _run_by_search(probs, n_samples, seed)
        assert run.counts.dtype == counts.dtype and np.array_equal(run.counts, counts)
        # repr, so that None and the float bits both count
        assert repr((run.q_hat, run.g2_hat, run.stderr_q)) == repr((q_hat, g2_hat, stderr_q))

    def test_cumulative_sum_past_one_before_the_end(self):
        # the steps past 1 lie above every draw in [0, 1), as the last one does
        assert np.cumsum(_PAST_ONE)[-2] > 1.0
        run = sample_counts(ExcitationDistribution(_PAST_ONE, 1.0), 20_000, seed=3)
        assert run.counts[-1] == 0
        assert np.array_equal(run.counts, _run_by_search(_PAST_ONE, 20_000, 3)[0])


def _jackknife_by_loop(counts, s1, s2, n):
    """The per-value loop that the vectorized jackknife replaced, kept as its oracle."""
    vals = np.nonzero(counts)[0]
    if len(vals) < 2:
        return 0.0
    if s1 == vals[-1]:
        return None
    q_del = np.empty(len(vals))
    for i, v in enumerate(vals):
        q_del[i] = _q_from_sums(s1 - v, s2 - v * v, n - 1.0)
    weights = counts[vals].astype(float)
    q_bar = float(np.dot(weights, q_del)) / n
    var_jack = (n - 1.0) / n * float(np.dot(weights, (q_del - q_bar) ** 2))
    return math.sqrt(var_jack)


class TestJackknife:
    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=200))
    @example([499, 1])  # one nonzero draw: None
    @example([0, 0, 7])  # one distinct value: 0.0
    @example([0, 1, 1])  # two draws: each deletion leaves one, no variance (None)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_value_loop(self, hist):
        counts = np.array(hist, dtype=np.int64)
        values = np.arange(len(counts), dtype=float)
        s1 = float(np.dot(values, counts))
        s2 = float(np.dot(values * values, counts))
        n = float(counts.sum())
        got = _jackknife_stderr_q(counts, s1, s2, n)
        if n < 3:
            assert got is None
        else:
            assert repr(got) == repr(_jackknife_by_loop(counts, s1, s2, n))  # bit for bit
