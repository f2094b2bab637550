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
            self._table  # built here, so that a diverging series is refused here
        elif isinstance(self.seq, Table) and self.k >= len(self.seq.values):
            raise ValueError(f"k = {self.k} runs past the end of the Table "
                             f"({len(self.seq.values)} values)")

    @property
    def u(self) -> float:
        """|z|^2, the single real parameter all statistics depend on."""
        return abs(self.z) ** 2

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def _table(self) -> tuple[int, np.ndarray]:
        """(n0, ln g(n0..level)), the _log_g_table of the spec's row: at k = inf the
        one its label needs, built with the spec; _row releases it."""
        return _log_g_table(self.seq, self.k, _log_label(self.u))

    @cached_property
    def _row(self) -> tuple[np.ndarray, float, float]:
        """(p(0..k) read-only, N, ln N) from _shifted_rows at the spec's label, once,
        from _table, which it then releases."""
        n0, log_g = self._table
        (m, w, total), = _shifted_rows(log_g, n0, [_log_label(self.u)])
        object.__delattr__(self, "_table")  # the frozen class refuses del
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


_FIRST_ROUND = 64  # terms of the level search's first round
# rounds double up to here, then grow by a quarter: a round costs about as much
# as 140 more ln g values, and past this a smaller round that overshoots the
# level wastes less than its extra rounds cost
_DOUBLING = 2048
# the budget probe's geometric grid of n, up to the last term MAX_TERMS allows
_PROBE_GRID = np.concatenate(([0], 2 ** np.arange((MAX_TERMS - 1).bit_length()),
                              [MAX_TERMS - 2, MAX_TERMS - 1]))


def _check_term_budget(seq: GSequence, log_u: float) -> int:
    """Refuse a k = inf series at ln u = log_u whose _log_g_table search would not
    end in MAX_TERMS terms; else return n0, where the search can start: every
    term before it is 0.0 in the row.

    The terms u^n / g(n) of every parametric variant are log-concave in n
    (ln g is convex), so once the search's stopping rule holds it holds at
    every later n: the search succeeds exactly when the rule holds at
    n = MAX_TERMS - 1.  The largest term it compares with is first bounded
    below on a geometric grid of n, and only when that does not settle the
    rule found by bisection on the increments.  The terms rise up to their
    peak, so n0 is the last grid point left of the grid's largest term that
    lies more than -_LOG_UNDERFLOW below it (0 if none does).
    """
    def log_terms(n) -> np.ndarray:
        n = np.asarray(n)
        return n * log_u - seq.log_g_array(n)

    last = MAX_TERMS - 1
    lt = log_terms(_PROBE_GRID)
    top = int(np.argmax(lt))
    # the terms left of the largest rise, so those far below it come first
    below = np.count_nonzero(lt[:top] < lt[top] + _LOG_UNDERFLOW)
    n0 = int(_PROBE_GRID[below - 1]) if below else 0
    ratio = lt[-1] - lt[-2]
    if ratio < 0:
        limit = lt[-1] - np.log1p(-np.exp(ratio)) - _LOG_TAIL_TOL
        if lt[top] > limit:
            return n0
        lo, hi = 0, last  # the first falling n lies in (lo, hi]; the peak is just before it
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a, b = log_terms([mid - 1, mid])
            lo, hi = (lo, mid) if b < a else (mid, hi)
        if log_terms([hi - 1])[0] > limit:
            return n0
    raise DivergenceError(
        f"normalization series needs more than {MAX_TERMS} terms for u={math.exp(log_u):g}")


def _log_g_table(seq: GSequence, k, log_u: float) -> tuple[int, np.ndarray]:
    """(n0, ln g(n0..level)) for rows up to ln u = log_u, every term before n0 being
    0.0 in such a row: k + 1 values from n0 = 0 at finite k, ln g(0) at u = 0.  The
    terms u^n / g(n) are log-concave in n, so with _from_zero the table serves
    every smaller u too.

    At k = inf the level is the first n where the tail of the terms is below
    _LOG_TAIL_TOL of the largest, the tail past a decreasing term bounded by the
    geometric series of its ratio to the previous one.  ln g is computed a round
    at a time.  Unless the first round, of _FIRST_ROUND terms, settles the
    series, the term budget is checked (DivergenceError) and the search goes on,
    from the budget's n0 when that lies past the round.  Rounds double up to
    _DOUBLING terms and grow by a quarter past it.  Past the peak the ratio of
    consecutive terms never rises (ln g is convex), so the tail bound falls at
    least linearly, and a round ends where that already makes the rule hold.
    """
    if k != INFINITE or log_u == -math.inf:
        return 0, seq.log_g_array(np.arange(1 if k == INFINITE else k + 1))
    n0 = start = 0
    while start < MAX_TERMS:
        if start == n0:  # a search from n0, no term before it: the rule applies after it
            chunks, best, prev, slope, reach = [], -math.inf, math.nan, math.nan, math.nan
        stop = min(max(2 * start if start < _DOUBLING else start + start // 4, _FIRST_ROUND),
                   MAX_TERMS)
        if slope < 0:  # the rule holds by n = start + gap
            gap = (reach - _LOG_TAIL_TOL - best) / -slope
            if gap < stop - start - 1:
                stop = start + 1 + int(gap)
        n = np.arange(start, stop)
        chunks.append(seq.log_g_array(n))
        lt = np.concatenate(([prev], n * log_u - chunks[-1]))  # from start - 1
        ratio = lt[1:] - lt[:-1]
        lt = lt[1:]
        falling = np.flatnonzero(ratio < 0)
        prev = float(lt[-1])
        if not falling.size:  # the terms rise: the last is the largest
            best = max(best, prev)
        else:  # the rule holds only where the terms fall
            best_n = np.maximum.accumulate(np.maximum(lt, best))
            tail = lt[falling] - np.log1p(-np.exp(ratio[falling]))
            done = falling[tail < _LOG_TAIL_TOL + best_n[falling]]
            if done.size:
                return n0, np.concatenate(chunks)[:start - n0 + done[0] + 1]
            if falling[-1] == len(lt) - 1:
                slope, reach = float(ratio[-1]), float(tail[-1])
            best = float(best_n[-1])
        start = stop
        if start == _FIRST_ROUND:  # the first round left the series open
            skip = _check_term_budget(seq, log_u)
            if skip > start:
                n0 = start = skip
    raise DivergenceError(f"no effective truncation level within {MAX_TERMS} terms")


def _from_zero(seq: GSequence, n0: int, log_g: np.ndarray) -> np.ndarray:
    """ln g(0..level) from a _log_g_table, for rows whose labels need the terms before n0."""
    return np.concatenate((seq.log_g_array(np.arange(n0)), log_g)) if n0 else log_g


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
    The moments reproduce the weight's g(n), so a weight whose ln g(n) differs
    from seq's by more than QUAD_TOL at such an n raises ValueError.
    """
    if len(psi.coeffs) != k + 1 or len(phi.coeffs) != k + 1:
        raise ValueError("FockVectors must have k+1 entries")
    c = np.conj(psi.coeffs) * phi.coeffs
    n = np.flatnonzero(c)
    if n.size == 0:
        return 0j
    log_g = seq.log_g_array(n)
    if np.any(np.abs(weight.seq.log_g_array(n) - log_g) > QUAD_TOL):
        raise ValueError(f"the weight is built for {weight.seq!r}, not for {seq!r}")
    return complex(np.sum(c[n] * weight._radial_moments(n) * np.exp(-log_g)))


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
