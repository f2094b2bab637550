"""Monte-Carlo excitation-count measurements and empirical Q / g2 estimates.

PRNG contract: numpy PCG64 seeded with the 64-bit run seed; identical
(dist, n_samples, seed) inputs reproduce SampleRun bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .gseq import _is_int
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
        return {**asdict(self), "counts": self.counts.tolist()}


def _q_from_sums(s1, s2, n: float):
    mean = s1 / n
    var = (s2 - s1 * s1 / n) / (n - 1.0)
    return var / mean - 1.0


# draws made at once: 8 bytes each.  PCG64 gives the same stream in chunks, so
# the counts do not depend on it; 2^20 keeps `tgcs verify`'s 10^6 draws in one
_CHUNK = 1 << 20
# the most draws a run makes: about 11 s of chunks on one core
MAX_SAMPLES = 1 << 30
# how far the probabilities' sum may miss 1
_SUM_TOL = 1e-6


def sample_counts(dist: ExcitationDistribution, n_samples: int, seed: int) -> SampleRun:
    """Inverse-CDF sampling over the finite support, deterministic per seed.

    A draw x lands at the first n with cdf(n) > x.  Each chunk of draws is
    sorted in place, so the number of draws below every CDF step between its
    smallest and largest draw comes from one search into them; the counts are
    the differences of those numbers, and no step outside that window is
    touched.  Refused with ValueError: a negative or NaN probability,
    probabilities summing to 1 no closer than _SUM_TOL, a seed that is not an
    integer (None would draw OS entropy), and an n_samples that is not an
    integer in [1, MAX_SAMPLES].
    """
    if not _is_int(n_samples) or not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be an integer in [1, {MAX_SAMPLES}], "
                         f"got {n_samples!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    probs = np.asarray(dist.probs)
    cdf = np.cumsum(probs)
    if not (probs.min() >= 0.0 and abs(cdf[-1] - 1.0) <= _SUM_TOL):  # NaN fails both
        raise ValueError(f"probabilities must be >= 0 and sum to 1 within {_SUM_TOL:g}; "
                         f"their sum is {cdf[-1]!r}")
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(len(cdf), dtype=np.int64)
    for start in range(0, n_samples, _CHUNK):
        x = rng.random(min(_CHUNK, n_samples - start))
        x.sort()
        # the draws land in lo..hi; counts[n] is the number below cdf[n] less the
        # number below cdf[n - 1], with none below cdf[lo - 1] and all below cdf[hi]
        lo, hi = np.searchsorted(cdf, (x[0], x[-1]), side="right")
        below = np.searchsorted(x, cdf[lo:hi])
        counts[lo:hi] += below
        counts[lo + 1:hi + 1] -= below
        counts[hi] += len(x)

    values = np.arange(len(counts), dtype=float)
    s1 = float(np.dot(values, counts))
    s2 = float(np.dot(values * values, counts))
    n = float(n_samples)
    if s1 == 0.0 or n_samples < 2:  # Q needs a mean above 0 and a variance
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

    None below 3 draws, where a deletion leaves one draw and no variance, and
    when a single draw is nonzero: deleting it leaves the mean at 0, where Q
    is undefined, as q_hat is for s1 = 0.
    """
    if n < 3.0:
        return None
    vals = np.nonzero(counts)[0]
    if len(vals) < 2:
        return 0.0
    if s1 == vals[-1]:
        return None
    q_del = _q_from_sums(s1 - vals, s2 - vals * vals, n - 1.0)
    weights = counts[vals].astype(float)
    q_bar = float(np.dot(weights, q_del)) / n
    var_jack = (n - 1.0) / n * float(np.dot(weights, (q_del - q_bar) ** 2))
    return math.sqrt(var_jack)
