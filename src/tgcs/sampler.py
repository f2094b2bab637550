"""Monte-Carlo excitation-count measurements and empirical Q / g2 estimates.

PRNG contract: numpy PCG64 seeded with the 64-bit run seed; identical
(dist, n_samples, seed) inputs reproduce SampleRun bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .states import ExcitationDistribution


@dataclass(frozen=True)
class SampleRun:
    seed: int
    n_samples: int
    counts: np.ndarray  # histogram over n = 0..k
    q_hat: float | None
    g2_hat: float | None
    stderr_q: float | None

    def to_json(self) -> dict[str, Any]:
        return {"seed": self.seed, "n_samples": self.n_samples,
                "counts": [int(c) for c in self.counts],
                "q_hat": self.q_hat, "g2_hat": self.g2_hat,
                "stderr_q": self.stderr_q}


def _q_from_sums(s1: float, s2: float, n: float) -> float:
    mean = s1 / n
    var = (s2 - s1 * s1 / n) / (n - 1.0)
    return var / mean - 1.0


def sample_counts(dist: ExcitationDistribution, n_samples: int, seed: int) -> SampleRun:
    """Inverse-CDF sampling over the finite support, deterministic per seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(n_samples), side="right")
    counts = np.bincount(draws, minlength=len(dist.probs)).astype(np.int64)

    values = np.arange(len(counts), dtype=float)
    s1 = float(np.dot(values, counts))
    s2 = float(np.dot(values * values, counts))
    n = float(n_samples)
    if s1 == 0.0:
        return SampleRun(seed=seed, n_samples=n_samples, counts=counts,
                         q_hat=None, g2_hat=None, stderr_q=None)

    q_hat = _q_from_sums(s1, s2, n)
    g2_hat = n * (s2 - s1) / (s1 * s1)
    stderr_q = _jackknife_stderr_q(counts, s1, s2, n)
    return SampleRun(seed=seed, n_samples=n_samples, counts=counts,
                     q_hat=q_hat, g2_hat=g2_hat, stderr_q=stderr_q)


def _jackknife_stderr_q(counts: np.ndarray, s1: float, s2: float,
                        n: float) -> float | None:
    """Delete-1 jackknife, grouped by the distinct count values in the histogram.

    None when a single draw is nonzero: deleting it leaves the mean at 0,
    where Q is undefined, as q_hat is for s1 = 0.
    """
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
