"""Truncated generalized coherent states: normalizations, distributions, overlaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .gseq import Factorial, GSequence, Table
from .specfun import (DEFAULT_POLICY, SeriesEvalPolicy, _log_sum_exp, _scaled_exp,
                      truncated_series_scaled)

INFINITE = math.inf
# one term budget for the infinite-k convergence probe and summation
MAX_TERMS = 1 << 21


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
                _probe_convergence(self.seq, abs(self.z) ** 2)
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


def _probe_convergence(seq: GSequence, u: float) -> None:
    """Ratio-test probe for sum u^n / g(n).

    Passes when the log-increment of g exceeds ln u at a checkpoint n = 256,
    512, ..., MAX_TERMS; g grows at least like a power of Gamma for every
    parametric variant, so convergent series clear an early checkpoint.
    """
    if u == 0:
        return
    n = 2 ** np.arange(8, MAX_TERMS.bit_length())
    log_g = seq.log_g_array(np.concatenate((n, n + 1)))
    if np.any(log_g[len(n):] - log_g[:len(n)] > math.log(u) + 1e-9):
        return
    raise DivergenceError(
        f"normalization series fails ratio probe up to n={MAX_TERMS} for u={u:g}")


def _adaptive_log_terms(seq: GSequence, log_u: float,
                        policy: SeriesEvalPolicy) -> np.ndarray:
    """ln(u^n / g(n)) for n = 0..k, k the first level whose tail is below abs_tol.

    The tail past a decreasing term is bounded by the geometric series of its
    ratio to the previous term.  The search doubles the number of terms from
    64, computing only the new half each round, up to MAX_TERMS.
    """
    # extra 1e-4 margin keeps moment sums clean at the 1e-12 level
    log_tol = math.log(policy.abs_tol * 1e-4)
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
        done = falling[tail < log_tol + best_n[falling]]
        if done.size:
            return lt[:lo + done[0] + 1]
        size *= 2
    raise DivergenceError(
        f"no effective truncation level within {MAX_TERMS} terms")


def _log_terms(spec: StateSpec, policy: SeriesEvalPolicy) -> np.ndarray:
    """ln(u^n / g(n)) for n = 0..k (k adaptive when infinite)."""
    u = spec.u
    if spec.k == INFINITE and u != 0:
        return _adaptive_log_terms(spec.seq, math.log(u), policy)
    k = 0 if spec.k == INFINITE else int(spec.k)
    n = np.arange(k + 1)
    log_g = spec.seq.log_g_array(n)
    if u == 0:
        lt = np.full(k + 1, -np.inf)
        lt[0] = -log_g[0]
        return lt
    return n * math.log(u) - log_g


def normalization(spec: StateSpec, policy: SeriesEvalPolicy = DEFAULT_POLICY) -> float:
    """N_{k,g}(|z|^2) = sum_{n=0}^{k} |z|^(2n) / g(n)."""
    return excitation_distribution(spec, policy).norm


def log_normalization(spec: StateSpec, policy: SeriesEvalPolicy = DEFAULT_POLICY) -> float:
    return _log_sum_exp(_log_terms(spec, policy))


def excitation_distribution(spec: StateSpec,
                            policy: SeriesEvalPolicy = DEFAULT_POLICY) -> ExcitationDistribution:
    """p(n) = |z|^(2n) / (N g(n)); the Kronecker distribution at z = 0."""
    m, w = _scaled_exp(_log_terms(spec, policy))
    total = float(np.sum(w))
    # the sum itself can exceed the double range (e.g. exp(u^rho) growth)
    norm = math.exp(m) * total if m + math.log(total) < 709.0 else math.inf
    return ExcitationDistribution(w / total, norm)


def amplitudes(spec: StateSpec) -> np.ndarray:
    """Fock coefficients N^(-1/2) z^n / sqrt(g(n)) for n = 0..k (finite k)."""
    if spec.k == INFINITE:
        raise ValueError("amplitudes requires a finite truncation level")
    _, w = _scaled_exp(_log_terms(spec, DEFAULT_POLICY))
    mags = np.sqrt(w / float(np.sum(w)))
    phase = spec.z / abs(spec.z) if spec.z != 0 else 1.0 + 0.0j
    return mags * phase ** np.arange(len(w))


def overlap(a: StateSpec, b: StateSpec,
            policy: SeriesEvalPolicy = DEFAULT_POLICY) -> complex:
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
    log_na = log_normalization(a, policy)
    log_nb = log_normalization(b, policy)
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
    2-D integral to the radial weight moments; those are evaluated by
    quadrature through the supplied weight function.
    """
    from .completeness import weight_radial_moment

    if len(psi.coeffs) != k + 1 or len(phi.coeffs) != k + 1:
        raise ValueError("FockVectors must have k+1 entries")
    inv_g = np.exp(-seq.log_g_array(np.arange(k + 1)))
    total = 0.0 + 0.0j
    for n in range(k + 1):
        c = np.conj(psi.coeffs[n]) * phi.coeffs[n]
        if c == 0:
            continue
        total += c * weight_radial_moment(weight, n, tol=tol) * inv_g[n]
    return total


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
