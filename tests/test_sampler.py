"""Monte-Carlo count sampling: determinism, histogram accuracy, Q estimation."""

import json
import warnings

import numpy as np
import pytest

from tgcs.gseq import Factorial, MLGamma
from tgcs.sampler import sample_counts
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
