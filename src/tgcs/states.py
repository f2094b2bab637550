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
                object.__setattr__(self, "_search", _first_round(self.seq, self.u))
        elif isinstance(self.seq, Table) and self.k >= len(self.seq.values):
            raise ValueError(f"k = {self.k} runs past the end of the Table "
                             f"({len(self.seq.values)} values)")

    @property
    def u(self) -> float:
        """|z|^2, the single real parameter all statistics depend on."""
        return abs(self.z) ** 2

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def _row(self) -> tuple[np.ndarray, float, float]:
        """(p(0..k) read-only, N, ln N) from _shifted_rows at the spec's label, once;
        at k = inf from the level search that construction began (_first_round)."""
        if self.k == INFINITE and self.u != 0:
            search = self.__dict__.pop("_search")  # spent once the row is built
            n0, log_g = search.n0, search.table()
        else:
            n0, log_g = 0, _log_g_table(self.seq, self.k, -math.inf)
        (m, w, total), = _shifted_rows(log_g, n0, [self.u])
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


# exp(x) is exactly 0.0 below x = -745.14: a term this far below the largest
# adds nothing to a row
_LOG_UNDERFLOW = -746.0
_FIRST_ROUND = 64  # terms of the level search's first round
# rounds double up to here, then grow by a quarter: a round costs about as much
# as 140 more ln g values, and past this a smaller round that overshoots the
# level wastes less than its extra rounds cost
_DOUBLING = 2048
# the budget probe's geometric grid of n, up to the last term MAX_TERMS allows
_PROBE_GRID = np.concatenate(([0], 2 ** np.arange((MAX_TERMS - 1).bit_length()),
                              [MAX_TERMS - 2, MAX_TERMS - 1]))


def _check_term_budget(seq: GSequence, u: float) -> int:
    """Refuse a k = inf series whose _LevelSearch would not end in MAX_TERMS terms;
    else return n0, where the search can start: every term before it is 0.0 in
    the row.

    The terms u^n / g(n) of every parametric variant are log-concave in n
    (ln g is convex), so once the search's stopping rule holds it holds at
    every later n: the search succeeds exactly when the rule holds at
    n = MAX_TERMS - 1.  The largest term it compares with is first bounded
    below on a geometric grid of n, and only when that does not settle the
    rule found by bisection on the increments.  The terms rise up to their
    peak, so n0 is the last grid point left of the grid's largest term that
    lies more than -_LOG_UNDERFLOW below it (0 if none does).
    """
    log_u = math.log(u)

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
        f"normalization series needs more than {MAX_TERMS} terms for u={u:g}")


class _LevelSearch:
    """The level of a k = inf sum: the first n where the tail of the terms u^n / g(n)
    is below _LOG_TAIL_TOL of the largest, the tail past a decreasing term bounded
    by the geometric series of its ratio to the previous one.

    ln g is computed from n0, every term before which lies below the one at n0, a
    round at a time, so that the search can stop after a round and go on later.
    Each round doubles the number of terms, from _FIRST_ROUND up to _DOUBLING and
    by a quarter past it.  Past the peak the ratio of consecutive terms never
    rises (ln g is convex), so the tail bound falls at least linearly, and a
    round ends where that already makes the rule hold.
    """

    def __init__(self, seq: GSequence, log_u: float, n0: int = 0):
        self.seq, self.log_u, self.n0, self.start = seq, log_u, n0, n0
        self.chunks: list[np.ndarray] = []
        self.log_g: np.ndarray | None = None  # ln g(n0..level), once found
        # the largest term so far and the last one (none before n0: the rule applies
        # after it); the last ratio and tail bound, once they fall
        self.best, self.prev, self.slope, self.reach = -math.inf, math.nan, math.nan, math.nan

    def run(self, end: int) -> bool:
        """Go on up to n = end - 1 at most; True once the level is found."""
        seq, log_u = self.seq, self.log_u
        while self.log_g is None and self.start < end:
            start = self.start
            stop = min(max(2 * start if start < _DOUBLING else start + start // 4,
                           _FIRST_ROUND), end)
            if self.slope < 0:  # the rule holds by n = start + gap
                gap = (self.reach - _LOG_TAIL_TOL - self.best) / -self.slope
                if gap < stop - start - 1:
                    stop = start + 1 + int(gap)
            n = np.arange(start, stop)
            self.chunks.append(seq.log_g_array(n))
            lt = np.concatenate(([self.prev], n * log_u - self.chunks[-1]))  # from start - 1
            ratio = lt[1:] - lt[:-1]
            lt = lt[1:]
            falling = np.flatnonzero(ratio < 0)
            self.prev = float(lt[-1])
            if not falling.size:  # the terms rise: the last is the largest
                self.best = max(self.best, self.prev)
            else:  # the rule holds only where the terms fall
                best_n = np.maximum.accumulate(np.maximum(lt, self.best))
                tail = lt[falling] - np.log1p(-np.exp(ratio[falling]))
                done = falling[tail < _LOG_TAIL_TOL + best_n[falling]]
                if done.size:
                    self.log_g = np.concatenate(self.chunks)[:start - self.n0 + done[0] + 1]
                    self.chunks = []
                if falling[-1] == len(lt) - 1:
                    self.slope, self.reach = float(ratio[-1]), float(tail[-1])
                self.best = float(best_n[-1])
            self.start = stop
        return self.log_g is not None

    def table(self) -> np.ndarray:
        """ln g(n0..level), searched up to MAX_TERMS terms."""
        if not self.run(MAX_TERMS):
            raise DivergenceError(f"no effective truncation level within {MAX_TERMS} terms")
        return self.log_g


def _adaptive_log_g(seq: GSequence, log_u: float) -> np.ndarray:
    """ln g(n) for n = 0..k, k the level of the terms u^n / g(n) (_LevelSearch)."""
    return _LevelSearch(seq, log_u).table()


def _first_round(seq: GSequence, u: float) -> _LevelSearch:
    """A k = inf spec's level search as construction leaves it: its first round run,
    and, unless that settles the series, the term budget checked (DivergenceError)
    and the search set to go on from the budget's n0 when n0 lies past the round."""
    search = _LevelSearch(seq, math.log(u))
    if not search.run(_FIRST_ROUND):
        n0 = _check_term_budget(seq, u)
        if n0 > _FIRST_ROUND:
            search = _LevelSearch(seq, search.log_u, n0)
    return search


def _log_g_table(seq: GSequence, k, top: float) -> np.ndarray:
    """ln g(0..level) for rows up to ln u = top: k + 1 values, or for k = inf the
    adaptive level at top, whose term budget the caller has checked; the terms
    are log-concave in n, so it serves every smaller u too."""
    if k == INFINITE and top > -math.inf:
        return _adaptive_log_g(seq, top)
    return seq.log_g_array(np.arange(1 if k == INFINITE else k + 1))


def _label_log_g(spec: StateSpec) -> np.ndarray:
    """ln g(0..level) for rows at every label up to the spec's (_log_g_table), from
    the level search the spec began when that starts at n = 0: its rounds are the
    ones _adaptive_log_g builds.  A search from n0 > 0 lacks the terms that rows
    at smaller labels need."""
    search = spec.__dict__.get("_search")
    if search is not None and search.n0 == 0:
        return search.table()
    return _log_g_table(spec.seq, spec.k, math.log(spec.u) if spec.u else -math.inf)


_BLOCK = 1 << 20  # entries of a log-term matrix built at once


def _log_term_rows(log_g: np.ndarray, n0: int, log_u: np.ndarray) -> Iterator[np.ndarray]:
    """Blocks of rows ln(u^n / g(n)), n = n0..n0 + len(log_g) - 1, at most _BLOCK
    entries each: one row per entry of log_u = ln u (-inf: u = 0, the Kronecker
    row), all from the one ln g table log_g = ln g(n0..)."""
    n = np.arange(n0, n0 + len(log_g))
    skip = int(n0 == 0)  # the n = 0 column stays 0: 0 ln u would be nan at u = 0
    step = max(1, _BLOCK // len(log_g))
    for i in range(0, len(log_u), step):
        rows = np.zeros((min(step, len(log_u) - i), len(log_g)))
        np.multiply(log_u[i:i + step, None], n[skip:], out=rows[:, skip:])
        rows -= log_g
        yield rows


def _shifted_rows(log_g: np.ndarray, n0: int, u) -> Iterator[tuple[np.ndarray, ...]]:
    """(m, w, sum of w) per row block at the labels u = |z|^2 (ln u by math.log,
    as the scalar sums take it), from the ln g table log_g = ln g(n0..): each
    row's largest log term and its terms over it, for n = 0.. with n0 zeros first."""
    log_u = [math.log(x) if x else -math.inf for x in u]
    for lt in _log_term_rows(log_g, n0, np.array(log_u)):
        m = lt.max(axis=1, keepdims=True)
        lt -= m
        w = np.zeros((len(lt), n0 + len(log_g))) if n0 else lt  # exp in place at n0 = 0
        np.exp(lt, out=w[:, n0:])
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
