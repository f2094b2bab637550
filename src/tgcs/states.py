"""Truncated generalized coherent states: normalizations, distributions, overlaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .gseq import G1, Factorial, GSequence, MLGamma, Table, WrightProduct
from .specfun import SERIES_ABS_TOL, truncated_series_scaled

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


def _truncation_level(k) -> float:
    """k as a state or weight holds it: INFINITE, or an int in [0, MAX_TERMS), the
    term budget that a k = inf sum gets too."""
    if k == INFINITE:
        return INFINITE
    if not (0 <= k < MAX_TERMS and k == int(k)):  # NaN fails every comparison
        raise ValueError(f"k must be a nonnegative integer below {MAX_TERMS}, or INFINITE, "
                         f"got {k}")
    return int(k)


def _modulus_squared(z: complex) -> float:
    """|z|^2, refused unless finite: NaN, inf, or |z| past about 1e154 (where abs(z)
    itself can raise OverflowError)."""
    if not math.isfinite(z.real * z.real + z.imag * z.imag):
        raise ValueError(f"|z|^2 must be a finite number, got z = {z!r}")
    return abs(z) ** 2


@dataclass(frozen=True)
class StateSpec:
    """A (truncated) generalized coherent state |z; k; g>."""

    seq: GSequence
    k: float  # nonnegative int, or INFINITE
    z: complex

    def __post_init__(self):
        _modulus_squared(self.z)
        object.__setattr__(self, "k", _truncation_level(self.k))
        if self.k == INFINITE:
            if isinstance(self.seq, Table):
                raise DivergenceError("Table sequences have finite domain; k must be finite")
            if self.u != 0:
                _check_term_budget(self.seq, self.u)
        elif isinstance(self.seq, Table) and self.k >= len(self.seq.values):
            raise ValueError(f"k = {self.k} runs past the end of the Table "
                             f"({len(self.seq.values)} values)")

    @property
    def u(self) -> float:
        """|z|^2, the single real parameter all statistics depend on."""
        return abs(self.z) ** 2

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def _row(self) -> tuple[np.ndarray, float, float]:
        """(p(0..k) read-only, N, ln N) from _shifted_rows at the spec's label, once."""
        (m, w, total), = _shifted_rows(self.seq, self.k, [self.u])
        m, total = float(m[0, 0]), float(total[0, 0])
        probs = w[0] / total
        probs.flags.writeable = False
        log_norm = m + math.log(total)
        # the sum itself can exceed the double range (e.g. exp(u^rho) growth)
        return probs, math.exp(m) * total if log_norm < 709.0 else math.inf, log_norm


@dataclass(frozen=True)
class ExcitationDistribution:
    """Probabilities p(0..k) together with the normalization constant."""

    probs: np.ndarray
    norm: float


@dataclass(frozen=True)
class FockVector:
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))


def _check_term_budget(seq: GSequence, u: float) -> None:
    """Refuse a k = inf series that _adaptive_log_g cannot sum in MAX_TERMS terms.

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


def _adaptive_log_g(seq: GSequence, log_u: float) -> np.ndarray:
    """ln g(n) for n = 0..k, k the first level where the tail of the terms u^n / g(n)
    is below _LOG_TAIL_TOL of the largest, the tail past a decreasing term bounded
    by the geometric series of its ratio to the previous one.  The search doubles
    the number of terms from 64, computing only the new half each round, up to
    MAX_TERMS."""
    log_g, best, prev = [], -math.inf, math.nan  # no term before n = 0: the rule applies from 1
    start, size = 0, 64
    while size <= MAX_TERMS:
        n = np.arange(start, size)
        log_g.append(seq.log_g_array(n))
        lt = np.concatenate(([prev], n * log_u - log_g[-1]))  # from n = start - 1
        ratio = lt[1:] - lt[:-1]
        lt = lt[1:]
        # the largest term so far, at each n
        best_n = np.maximum.accumulate(np.maximum(lt, best))
        falling = np.flatnonzero(ratio < 0)
        tail = lt[falling] - np.log1p(-np.exp(ratio[falling]))
        done = falling[tail < _LOG_TAIL_TOL + best_n[falling]]
        if done.size:
            return np.concatenate(log_g)[:start + done[0] + 1]
        best, prev = float(best_n[-1]), float(lt[-1])
        start, size = size, 2 * size
    raise DivergenceError(
        f"no effective truncation level within {MAX_TERMS} terms")


_BLOCK = 1 << 20  # entries of a log-term matrix built at once


def _log_term_rows(seq: GSequence, k, log_u: np.ndarray, top: float) -> Iterator[np.ndarray]:
    """Blocks of rows ln(u^n / g(n)), n = 0..level, at most _BLOCK entries each:
    one row per entry of log_u = ln u (-inf: u = 0, the Kronecker row), all
    from one ln g table.  For k = inf the level is the adaptive one at top, the
    largest ln u, whose term budget the caller has checked (StateSpec does when
    built); the terms are log-concave in n, so it serves every smaller u too.
    """
    log_g = (_adaptive_log_g(seq, top) if k == INFINITE and top > -math.inf
             else seq.log_g_array(np.arange(1 if k == INFINITE else k + 1)))
    n = np.arange(1, len(log_g))
    step = max(1, _BLOCK // len(log_g))
    for i in range(0, len(log_u), step):
        # the n = 0 column stays 0: 0 ln u would be nan at u = 0
        rows = np.zeros((min(step, len(log_u) - i), len(log_g)))
        np.multiply(log_u[i:i + step, None], n, out=rows[:, 1:])
        rows -= log_g
        yield rows


def _shifted_rows(seq: GSequence, k, u) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(m, w, sum of w) per row block at the labels u = |z|^2 (ln u by math.log,
    as the scalar sums take it): each row's largest log term and its terms over it."""
    log_u = [math.log(x) if x else -math.inf for x in u]
    for lt in _log_term_rows(seq, k, np.array(log_u), max(log_u)):
        m = lt.max(axis=1, keepdims=True)
        w = np.exp(lt - m)
        yield m, w, w.sum(axis=1, keepdims=True)


def normalization(spec: StateSpec) -> float:
    """N_{k,g}(|z|^2) = sum_{n=0}^{k} |z|^(2n) / g(n)."""
    return excitation_distribution(spec).norm


def log_normalization(spec: StateSpec) -> float:
    return spec._row[2]


def excitation_distribution(spec: StateSpec) -> ExcitationDistribution:
    """p(n) = |z|^(2n) / (N g(n)); the Kronecker distribution at z = 0."""
    return ExcitationDistribution(*spec._row[:2])


def amplitudes(spec: StateSpec) -> np.ndarray:
    """Fock coefficients N^(-1/2) z^n / sqrt(g(n)) for n = 0..k (finite k)."""
    if spec.k == INFINITE:
        raise ValueError("amplitudes requires a finite truncation level")
    phase = spec.z / abs(spec.z) if spec.z != 0 else 1.0 + 0.0j
    return np.sqrt(spec._row[0]) * phase ** np.arange(spec.k + 1)


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
    cross, log_scale = truncated_series_scaled(a.seq, a.k, np.conj(a.z) * b.z)
    log_na = log_normalization(a)
    log_nb = log_normalization(b)
    return cross * math.exp(log_scale - 0.5 * (log_na + log_nb))


def bargmann_poly(phi: FockVector, seq: GSequence, zbar: complex) -> complex:
    """sum_n <n||phi> zbar^n / sqrt(g(n)) over the basis phi spans."""
    scaled = phi.coeffs * np.exp(-0.5 * seq.log_g_array(np.arange(len(phi.coeffs))))
    return complex(np.polyval(scaled[::-1], zbar))


def bargmann_inner_product(psi: FockVector, phi: FockVector, seq: GSequence,
                           k: int, weight) -> complex:
    """<psi||phi> via the completeness measure, angular integral done analytically.

    Only equal powers of z survive the angular integration, which reduces the
    2-D integral to the radial weight moments; those are evaluated by one
    quadrature through the supplied weight function, a row per nonzero term.
    """
    if len(psi.coeffs) != k + 1 or len(phi.coeffs) != k + 1:
        raise ValueError("FockVectors must have k+1 entries")
    c = np.conj(psi.coeffs) * phi.coeffs
    n = np.flatnonzero(c)
    if n.size == 0:
        return 0j
    return complex(np.sum(c[n] * weight._radial_moments(n) * np.exp(-seq.log_g_array(n))))


def random_state_spec(rng: np.random.Generator, k_max: int = 20,
                      z_max: float = 10.0, allow_infinite: bool = True) -> StateSpec:
    """Random spec across all parametric variants, for property-style tests."""
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
