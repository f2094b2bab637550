"""Truncated generalized coherent states: normalizations, distributions, overlaps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gseq import G1, MAX_TERMS, Factorial, GSequence, MLGamma, Table, WrightProduct
from .specfun import (_LN_MAX, _LOG_UNDERFLOW, QUAD_TOL, SERIES_ABS_TOL, _log_label,
                      _shifted_rows, truncated_series_scaled)

INFINITE = math.inf
# ln of the tail bound, relative to the largest term, that ends a k = inf sum;
# the extra 1e-4 margin keeps moment sums clean at the 1e-12 level
_LOG_TAIL_TOL = math.log(SERIES_ABS_TOL * 1e-4)


class DivergenceError(ValueError):
    """The infinite-k normalization series has no level within MAX_TERMS terms, or
    its sequence is a finite Table."""


class IncompatibleSpecError(ValueError):
    """Two state specs do not share the sequence/truncation needed by an overlap."""


def _truncation_level(k, seq: GSequence) -> float:
    """k as a state or weight of seq holds it: INFINITE, or an int in [0, MAX_TERMS), the
    term budget that a k = inf sum gets too; a Table's k is finite and below its length."""
    if k == INFINITE:
        if isinstance(seq, Table):
            raise DivergenceError("Table sequences have finite domain; k must be finite")
        return INFINITE
    if not (0 <= k < MAX_TERMS and k == int(k)):  # NaN fails every comparison
        raise ValueError(f"k must be a nonnegative integer below {MAX_TERMS}, or INFINITE, "
                         f"got {k}")
    if isinstance(seq, Table) and k >= len(seq.values):
        raise ValueError(f"k = {k} runs past the end of the Table ({len(seq.values)} values)")
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
        object.__setattr__(self, "k", _truncation_level(self.k, self.seq))
        self._span  # searched here, so that a diverging series is refused here

    @property
    def u(self) -> float:
        """|z|^2, the single real parameter all statistics depend on."""
        return abs(self.z) ** 2

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def _span(self) -> tuple[int, int]:
        """(n0, level) of the spec's row, from _span at its label."""
        return _span(self.seq, self.k, _log_label(self.u))

    @cached_property
    def _row(self) -> tuple[np.ndarray, float, float]:
        """(p(0..k) read-only, N, ln N) from _shifted_rows at the spec's label, once,
        on ln g(n0..level)."""
        n0, level = self._span
        log_g = self.seq.log_g_array(np.arange(n0, level + 1))
        (m, w, total), = _shifted_rows(log_g, n0, [_log_label(self.u)])
        m, total = float(m[0, 0]), float(total[0, 0])
        probs = w[0] / total
        probs.flags.writeable = False
        log_norm = m + math.log(total)
        # the sum itself can exceed the double range (e.g. exp(u^rho) growth)
        return probs, math.exp(m) * total if m < _LN_MAX else math.inf, log_norm


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


def _first(holds, lo: int, end: int) -> int | None:
    """The first n in [lo, end] where holds(n), a predicate that stays true once
    it is true; None if it is false at end.  An unbounded search (Bentley & Yao,
    Inf. Process. Lett. 5, 1976): steps from lo that double until one lands where
    holds, then bisection, about 2 log2(n - lo + 2) calls of holds."""
    prev, n, step = lo - 1, lo, 1  # holds is false at prev
    while not holds(n):
        if n == end:
            return None
        prev, n, step = n, min(n + step, end), 2 * step
    while n - prev > 1:
        mid = (prev + n) // 2
        prev, n = (prev, mid) if holds(mid) else (mid, n)
    return n


def _span(seq: GSequence, k, log_u: float) -> tuple[int, int]:
    """(n0, level): the terms u^n / g(n), u = exp(log_u), that a row sums are those
    of n0..level, every term before n0 being 0.0 in the row.  (0, k) at finite
    k, (0, 0) at u = 0.

    At k = inf the terms are log-concave in n (ln g is convex), so each bound is
    where a monotone predicate on the scalar ln g first holds (_first): the peak
    is the first n whose next term is smaller, the level the first n past it
    where the tail, bounded by the geometric series of the ratio of its term to
    the previous one, is below _LOG_TAIL_TOL of the peak's term, and n0 the
    first n whose term is within -_LOG_UNDERFLOW of the peak's, as
    specfun._shifted_rows compares.  DivergenceError if the terms have no peak
    or no level below MAX_TERMS.
    """
    if k != INFINITE or log_u == -math.inf:
        return 0, (0 if k == INFINITE else k)

    def term(n: int) -> float:
        return n * log_u - seq._log_g(n)

    # the tail rule against the peak's term, by numpy's exp and log1p, not math's,
    # which differ in the last bit on some values: so the level is the one a
    # search over a whole ln g table array gives
    def settled(n: int) -> bool:
        t = term(n)
        if t >= bound:  # the tail is at least t
            return False
        e = np.exp(t - term(n - 1))
        return e < 1 and t - np.log1p(-e) < bound  # no bound on the tail where e is 1

    last = MAX_TERMS - 1
    peak = _first(lambda n: term(n + 1) < term(n), 0, last - 1)
    if peak is not None:
        top = term(peak)
        bound = _LOG_TAIL_TOL + top
        level = _first(settled, peak + 1, last)
        if level is not None:
            # not term(n) > top + _LOG_UNDERFLOW: where |top| is past about 7e18,
            # that sum rounds to top and the peak itself would fail the test
            return _first(lambda n: term(n) - top > _LOG_UNDERFLOW, 0, peak), level
    raise DivergenceError(
        f"normalization series needs more than {MAX_TERMS} terms for u={math.exp(log_u):g}")


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
    _truncation_level(max(len(phi.coeffs) - 1, 0), seq)
    scaled = phi.coeffs * np.exp(-0.5 * seq.log_g_array(np.arange(len(phi.coeffs))))
    return complex(np.polyval(scaled[::-1], zbar))


def bargmann_inner_product(psi: FockVector, phi: FockVector, seq: GSequence,
                           k: int, weight) -> complex:
    """<psi||phi> via the completeness measure, angular integral done analytically.

    Only equal powers of z survive the angular integration, which reduces the
    2-D integral to the radial weight moments pi int [T]^-1 U u^n du; those are
    the weight's own moment route (its _cancelled_moments at QUAD_TOL, as
    completeness.weight_radial_moment), one quadrature with a row per nonzero
    term.  The moments reproduce the weight's g(n), so a weight whose ln g(n)
    differs from seq's by more than QUAD_TOL at such an n raises ValueError.
    """
    k = _truncation_level(k, seq)
    if len(psi.coeffs) != k + 1 or len(phi.coeffs) != k + 1:
        raise ValueError("FockVectors must have k+1 entries")
    c = np.conj(psi.coeffs) * phi.coeffs
    n = np.flatnonzero(c)
    if n.size == 0:
        return 0j
    log_g = seq.log_g_array(n)
    if np.any(np.abs(weight.seq.log_g_array(n) - log_g) > QUAD_TOL):
        raise ValueError(f"the weight is built for {weight.seq!r}, not for {seq!r}")
    return complex(np.sum(c[n] * weight._cancelled_moments(n, QUAD_TOL) * np.exp(-log_g)))


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
