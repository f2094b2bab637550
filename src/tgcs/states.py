"""Truncated generalized coherent states: normalizations, distributions, overlaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .gseq import Factorial, GSequence, Table
from .specfun import SERIES_ABS_TOL, _log_sum_exp, _scaled_exp, truncated_series_scaled

INFINITE = math.inf
# one term budget for the infinite-k convergence probe and summation
MAX_TERMS = 1 << 21
# ln of the tail bound, relative to the largest term, that ends a k = inf sum;
# the extra 1e-4 margin keeps moment sums clean at the 1e-12 level
_LOG_TAIL_TOL = math.log(SERIES_ABS_TOL * 1e-4)


class DivergenceError(ValueError):
    """The infinite-k normalization series fails its convergence probe."""


class IncompatibleSpecError(ValueError):
    """Two state specs do not share the sequence/truncation needed by an overlap."""


@dataclass(frozen=True)
class StateSpec:
    """A (truncated) generalized coherent state |z; k; g>."""

    seq: GSequence
    k: float  # nonnegative int, or INFINITE
    z: complex

    def __post_init__(self):
        if self.k == INFINITE:
            if isinstance(self.seq, Table):
                raise DivergenceError("Table sequences have finite domain; k must be finite")
            if self.z != 0:
                _check_term_budget(self.seq, abs(self.z) ** 2)
        else:
            if self.k != int(self.k) or self.k < 0:
                raise ValueError(f"k must be a nonnegative integer or INFINITE, got {self.k}")
            if isinstance(self.seq, Table) and self.k >= len(self.seq.values):
                raise ValueError(f"k = {self.k} runs past the end of the Table "
                                 f"({len(self.seq.values)} values)")
            object.__setattr__(self, "k", int(self.k))

    @property
    def u(self) -> float:
        """|z|^2, the single real parameter all statistics depend on."""
        return abs(self.z) ** 2

    def to_json(self) -> dict[str, Any]:
        return {"seq": self.seq.to_json(),
                "k": "inf" if self.k == INFINITE else int(self.k),
                "z": {"re": self.z.real, "im": self.z.imag}}

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "StateSpec":
        k = obj["k"]
        return StateSpec(seq=GSequence.from_json(obj["seq"]),
                         k=INFINITE if k == "inf" else int(k),
                         z=complex(obj["z"]["re"], obj["z"]["im"]))


@dataclass(frozen=True)
class ExcitationDistribution:
    """Probabilities p(0..k) together with the normalization constant."""

    probs: np.ndarray
    norm: float

    @property
    def k(self) -> int:
        return len(self.probs) - 1


@dataclass(frozen=True)
class FockVector:
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))


def _check_term_budget(seq: GSequence, u: float) -> None:
    """Refuse a k = inf series that _adaptive_log_terms cannot sum in MAX_TERMS terms.

    The terms u^n / g(n) of every parametric variant are log-concave in n
    (ln g is convex), so once the search's stopping rule holds it holds at
    every later n: the search succeeds exactly when the rule holds at
    n = MAX_TERMS - 1.  The largest term it compares with is first bounded
    below on a geometric grid of n, and only when that does not settle the
    rule found by bisection on the increments.
    """
    log_u = math.log(u)

    def log_terms(n) -> np.ndarray:
        n = np.asarray(n)
        return n * log_u - seq.log_g_array(n)

    last = MAX_TERMS - 1
    lt = log_terms(np.concatenate(([0], 2 ** np.arange(last.bit_length()), [last - 1, last])))
    ratio = lt[-1] - lt[-2]
    if ratio < 0:
        limit = lt[-1] - np.log1p(-np.exp(ratio)) - _LOG_TAIL_TOL
        if lt.max() > limit:
            return
        lo, hi = 0, last  # the first falling n lies in (lo, hi]; the peak is just before it
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a, b = log_terms([mid - 1, mid])
            lo, hi = (lo, mid) if b < a else (mid, hi)
        if log_terms([hi - 1])[0] > limit:
            return
    raise DivergenceError(
        f"normalization series needs more than {MAX_TERMS} terms for u={u:g}")


def _adaptive_log_terms(seq: GSequence, log_u: float) -> np.ndarray:
    """ln(u^n / g(n)) for n = 0..k, k the first level whose tail is below _LOG_TAIL_TOL.

    The tail past a decreasing term is bounded by the geometric series of its
    ratio to the previous term.  The search doubles the number of terms from
    64, computing only the new half each round, up to MAX_TERMS.
    """
    lt = np.empty(0)
    best = -math.inf
    size = 64
    while size <= MAX_TERMS:
        n = np.arange(len(lt), size)
        new = n * log_u - seq.log_g_array(n)
        # the largest term so far, at each new n
        best_n = np.maximum.accumulate(np.maximum(new, best))
        best = float(best_n[-1])
        # the rule applies from n = 1 on
        lo = max(len(lt), 1)
        best_n = best_n[lo - len(lt):]
        lt = np.concatenate((lt, new))
        ratio = lt[lo:] - lt[lo - 1:-1]
        falling = np.flatnonzero(ratio < 0)
        tail = lt[lo:][falling] - np.log1p(-np.exp(ratio[falling]))
        done = falling[tail < _LOG_TAIL_TOL + best_n[falling]]
        if done.size:
            return lt[:lo + done[0] + 1]
        size *= 2
    raise DivergenceError(
        f"no effective truncation level within {MAX_TERMS} terms")


def _log_terms(spec: StateSpec) -> np.ndarray:
    """ln(u^n / g(n)) for n = 0..k (k adaptive when infinite)."""
    u = spec.u
    if spec.k == INFINITE and u != 0:
        return _adaptive_log_terms(spec.seq, math.log(u))
    k = 0 if spec.k == INFINITE else int(spec.k)
    n = np.arange(k + 1)
    log_g = spec.seq.log_g_array(n)
    if u == 0:
        lt = np.full(k + 1, -np.inf)
        lt[0] = -log_g[0]
        return lt
    return n * math.log(u) - log_g


def normalization(spec: StateSpec) -> float:
    """N_{k,g}(|z|^2) = sum_{n=0}^{k} |z|^(2n) / g(n)."""
    return excitation_distribution(spec).norm


def log_normalization(spec: StateSpec) -> float:
    return _log_sum_exp(_log_terms(spec))


def excitation_distribution(spec: StateSpec) -> ExcitationDistribution:
    """p(n) = |z|^(2n) / (N g(n)); the Kronecker distribution at z = 0."""
    m, w = _scaled_exp(_log_terms(spec))
    total = float(np.sum(w))
    # the sum itself can exceed the double range (e.g. exp(u^rho) growth)
    norm = math.exp(m) * total if m + math.log(total) < 709.0 else math.inf
    return ExcitationDistribution(w / total, norm)


def amplitudes(spec: StateSpec) -> np.ndarray:
    """Fock coefficients N^(-1/2) z^n / sqrt(g(n)) for n = 0..k (finite k)."""
    if spec.k == INFINITE:
        raise ValueError("amplitudes requires a finite truncation level")
    _, w = _scaled_exp(_log_terms(spec))
    mags = np.sqrt(w / float(np.sum(w)))
    phase = spec.z / abs(spec.z) if spec.z != 0 else 1.0 + 0.0j
    return mags * phase ** np.arange(len(w))


def overlap(a: StateSpec, b: StateSpec) -> complex:
    """<a||b> = [T(|z1|^2) T(|z2|^2)]^(-1/2) T(z1* z2), T the shared series."""
    if a.seq != b.seq or a.k != b.k:
        raise IncompatibleSpecError("overlap requires matching sequence and truncation")
    if a.k == INFINITE:
        if not isinstance(a.seq, Factorial):
            raise IncompatibleSpecError(
                "infinite-k overlaps are only implemented for the canonical sequence")
        z1, z2 = a.z, b.z
        return np.exp(np.conj(z1) * z2 - (abs(z1) ** 2 + abs(z2) ** 2) / 2.0)
    k = int(a.k)
    cross, log_scale = truncated_series_scaled(a.seq, k, np.conj(a.z) * b.z)
    log_na = log_normalization(a)
    log_nb = log_normalization(b)
    return cross * math.exp(log_scale - 0.5 * (log_na + log_nb))


def bargmann_poly(phi: FockVector, seq: GSequence, k: int, zbar: complex) -> complex:
    """sum_n <n||phi> zbar^n / sqrt(g(n)) over the truncated basis."""
    coeffs = phi.coeffs
    if len(coeffs) != k + 1:
        raise ValueError(f"FockVector must have k+1 = {k + 1} entries, got {len(coeffs)}")
    scaled = coeffs * np.exp(-0.5 * seq.log_g_array(np.arange(k + 1)))
    return complex(np.polyval(scaled[::-1], zbar))


def bargmann_inner_product(psi: FockVector, phi: FockVector, seq: GSequence,
                           k: int, weight, tol: float = 1e-8) -> complex:
    """<psi||phi> via the completeness measure, angular integral done analytically.

    Only equal powers of z survive the angular integration, which reduces the
    2-D integral to the radial weight moments; those are evaluated by one
    quadrature through the supplied weight function, a row per nonzero term.
    """
    from .completeness import _radial_moments

    if len(psi.coeffs) != k + 1 or len(phi.coeffs) != k + 1:
        raise ValueError("FockVectors must have k+1 entries")
    c = np.conj(psi.coeffs) * phi.coeffs
    n = np.flatnonzero(c)
    if n.size == 0:
        return 0j
    return complex(np.sum(c[n] * _radial_moments(weight, n, tol) * np.exp(-seq.log_g_array(n))))


def random_state_spec(rng: np.random.Generator, k_max: int = 20,
                      z_max: float = 10.0, allow_infinite: bool = True) -> StateSpec:
    """Random spec across all parametric variants, for property-style tests."""
    from .gseq import G1, MLGamma, WrightProduct

    variant = rng.integers(0, 4)
    if variant == 0:
        seq: GSequence = Factorial()
    elif variant == 1:
        seq = MLGamma(alpha=rng.uniform(0.2, 3.0), beta=rng.uniform(0.2, 3.0))
    elif variant == 2:
        seq = WrightProduct(lam=rng.uniform(0.2, 3.0), mu=rng.uniform(0.2, 3.0))
    else:
        seq = G1(nu=rng.uniform(0.0, 2.0), rho=rng.uniform(0.5, 2.0),
                 w=rng.uniform(0.5, 2.0))
    if allow_infinite and rng.random() < 0.2:
        k: float = INFINITE
    else:
        k = int(rng.integers(1, k_max + 1))
    r = rng.uniform(0.0, z_max)
    theta = rng.uniform(-math.pi, math.pi)
    return StateSpec(seq=seq, k=k, z=r * complex(math.cos(theta), math.sin(theta)))
