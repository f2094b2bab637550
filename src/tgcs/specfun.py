"""Special functions underlying the coherent-state constructions.

Everything here works on real nonnegative arguments except the truncated
series, which is a plain degree-k polynomial and accepts complex input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gseq import GSequence


class SeriesConvergenceError(RuntimeError):
    """Raised when a series hits SERIES_MAX_TERMS before the stopping rule fires."""

    def __init__(self, message: str, partial_sum: float, last_term: float):
        super().__init__(f"{message} (partial sum {partial_sum!r}, last term {last_term!r})")
        self.partial_sum = partial_sum
        self.last_term = last_term


class QuadratureError(RuntimeError):
    """Raised when an improper integral does not reach the requested accuracy."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (best estimate {value!r}, error estimate {error!r})")
        self.value = value
        self.error = error


# the stopping rule and term cap of the scalar series mittag_leffler and wright;
# SERIES_ABS_TOL also sets the tail bound of the k = inf sums in states
SERIES_ABS_TOL = 1e-14
SERIES_REL_TOL = 1e-14
SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True)
class KratzelParams:
    lam: float
    mu: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _positive_series(log_term, name: str) -> float:
    """Kahan-summed positive series with the term-based stopping rule.

    log_term(n) returns ln of the n-th (nonnegative) term.  Stops once two
    consecutive terms fall below abs_tol + rel_tol*|partial sum|; two terms
    because the term sequence need not be monotone.
    """
    total = 0.0
    comp = 0.0
    small_streak = 0
    term = 0.0
    for n in range(SERIES_MAX_TERMS):
        lt = log_term(n)
        term = math.exp(lt) if lt < 709.0 else math.inf
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise SeriesConvergenceError(f"{name}: series overflow", total, term)
        if term <= SERIES_ABS_TOL + SERIES_REL_TOL * total:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise SeriesConvergenceError(f"{name}: max_terms reached", total, term)


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) = sum_n x^n / Gamma(alpha*n + beta), x >= 0."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("mittag_leffler requires alpha > 0 and beta > 0")
    if x < 0:
        raise ValueError("mittag_leffler requires x >= 0")
    if x == 0:
        return 1.0 / math.gamma(beta)
    lx = math.log(x)
    return _positive_series(lambda n: n * lx - math.lgamma(alpha * n + beta),
                            "mittag_leffler")


def wright(lam: float, mu: float, x: float) -> float:
    """W_{lam,mu}(x) = sum_n x^n / (n! Gamma(lam*n + mu)), x >= 0."""
    if lam <= 0 or mu <= 0:
        raise ValueError("wright requires lam > 0 and mu > 0")
    if x < 0:
        raise ValueError("wright requires x >= 0")
    if x == 0:
        return 1.0 / math.gamma(mu)
    lx = math.log(x)
    return _positive_series(
        lambda n: n * lx - math.lgamma(n + 1) - math.lgamma(lam * n + mu),
        "wright")


def truncated_series(g: "GSequence", k: int, z: complex) -> complex:
    """sum_{n=0}^{k} z^n / g(n), evaluated as a degree-k polynomial."""
    val, log_scale = truncated_series_scaled(g, k, z)
    return val * math.exp(log_scale)


def truncated_series_scaled(g: "GSequence", k: int, z: complex) -> tuple[complex, float]:
    """Same sum as truncated_series, returned as (mantissa, log_scale).

    The value is mantissa * exp(log_scale).  Keeps overlaps of far-apart
    labels representable when the plain sum would overflow a double.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    z = complex(z)
    if z == 0:
        return 1.0, -g.log_g(0)
    n = np.arange(k + 1)
    log_mag = n * math.log(abs(z)) - g.log_g_array(n)
    shift, mag = _scaled_exp(log_mag)
    terms = mag * (z / abs(z)) ** n
    # ascending-magnitude summation keeps the small terms from being swamped
    order = np.argsort(log_mag)
    total = complex(np.sum(terms[order]))
    return total, shift


def log_truncated_series(g: "GSequence", k: int, log_u):
    """ln of sum_{n=0}^{k} u^n / g(n) at u = exp(log_u) > 0, element by element.

    log_u is a float or an array; the (entries x (k+1)) matrix of log terms is
    summed in row blocks of at most _BLOCK entries.
    """
    n = np.arange(k + 1)
    log_g = g.log_g_array(n)
    flat = np.ravel(log_u)
    rows = max(1, _BLOCK // (k + 1))
    out = np.concatenate([_log_sum_exp(np.multiply.outer(flat[i:i + rows], n) - log_g)
                          for i in range(0, max(flat.size, 1), rows)])
    return out.reshape(np.shape(log_u))[()]


_BLOCK = 1 << 20  # entries of a log-term matrix summed at once


def _scaled_exp(log_terms: np.ndarray) -> tuple[float, np.ndarray]:
    """(m, exp(log_terms - m)) with m = max(log_terms): the one max shift behind
    every positive log-series here, whose sums overflow long before their logs."""
    m = float(np.max(log_terms))
    return m, np.exp(log_terms - m)


def _log_sum_exp(log_terms: np.ndarray):
    """ln sum exp(log_terms) over the last axis; -inf for the empty sum.

    A 1-D array gives a float (through math.log, as every scalar sum here);
    a matrix gives one value per row, each shifted by its own largest term.
    Its terms below e^-700 of that are raised to it, which leaves a sum of at
    least 1 unchanged and spares numpy's exp its slow underflow path.
    """
    if log_terms.ndim > 1:
        m = np.max(log_terms, axis=-1, keepdims=True)
        return m[..., 0] + np.log(np.sum(np.exp(np.maximum(log_terms - m, -700.0)), axis=-1))
    if len(log_terms) == 0:
        return -math.inf
    m, w = _scaled_exp(log_terms)
    return m + math.log(float(np.sum(w)))


_TRIM = 1e-20   # a row's support: its nodes above this fraction of its largest
_HALVINGS = 10  # of the step 0.5
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny) / _EPS  # below it, rounding is not relative


def _trapezoid(f, tol: float, lo=-700.0, hi=700.0, *params) -> np.ndarray:
    """[integrals, error estimates] of f over [lo, hi] on the log axis t = ln u.

    The one quadrature behind every integral of the package.  One row per
    entry of lo, hi and params (+-700 spans the double range); f(t, *p) takes
    a flat array of nodes and each parameter repeated at its row's nodes.
    Grids of step 32, then 0.5, trim each row to its nodes above _TRIM of its
    largest, plus two each side (so that a zero of f at a node does not cut
    off a lobe beyond it); then h halves until the change in a row's
    sum, plus the rounding floor eps * |sum|, is within tol of the sum.  On
    these analytic integrands, which decay exponentially or doubly
    exponentially in t, the rule converges exponentially in 1/h (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  Raises QuadratureError on a non-finite f,
    on a change at the rounding floor that misses tol, and after _HALVINGS
    halvings.
    """
    lo, hi, *params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi, *params)))
    rows = np.arange(lo.size)

    def sample(idx, start, step, count):  # f at start + step * j, j < count, rows idx
        r = np.repeat(idx, count)
        j = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
        v = f(start[r] + step[r] * j, *(p[r] for p in params))
        if not math.isfinite(v.sum()):
            raise QuadratureError("trapezoid: integrand not finite", math.nan, math.inf)
        return r, j, v

    for step in (32.0, 0.5):
        n = np.maximum(np.ceil((hi - lo) / step), 1).astype(int)
        h = (hi - lo) / n
        r, j, v = sample(rows, lo, h, n + 1)
        starts = np.cumsum(n + 1) - n - 1
        peak = np.maximum.reduceat(np.abs(v), starts)
        big = np.abs(v) > _TRIM * peak[r]
        first = np.maximum(np.minimum.reduceat(np.where(big, j, n[r]), starts) - 2, 0)
        last = np.minimum(np.maximum.reduceat(np.where(big, j, 0), starts) + 2, n)
        found = peak > _TINY  # a row not found keeps its window
        lo, hi = np.where(found, lo + h * first, lo), np.where(found, lo + h * last, hi)
    fr, lr = first[r], last[r]
    v = v * (((j >= fr) & (j <= lr)) - 0.5 * (j == fr) - 0.5 * (j == lr))
    out = np.array([h * np.bincount(r, v, minlength=lo.size), np.zeros(lo.size)])
    n = np.where(found, last - first, 0)
    idx = rows[n > 0]
    for _halving in range(_HALVINGS):
        if idx.size == 0:
            return out
        h[idx] /= 2.0
        r, _, v = sample(idx, lo + h, 2.0 * h, n[idx])
        n[idx] *= 2
        prev = out[0, idx]
        out[0, idx] = prev / 2.0 + h[idx] * np.bincount(r, v, minlength=lo.size)[idx]
        change, floor = np.abs(out[0, idx] - prev), _EPS * np.abs(out[0, idx])
        out[1, idx] = change + floor
        open_ = out[1, idx] > tol * np.abs(out[0, idx])
        stuck = idx[open_ & (change <= floor)]
        if stuck.size:
            raise QuadratureError("trapezoid: tol below the rounding floor",
                                  *out[:, stuck[0]].tolist())
        idx = idx[open_]
    if idx.size:
        raise QuadratureError(f"trapezoid: no convergence in {_HALVINGS} halvings",
                              *out[:, idx[0]].tolist())
    return out


# past this exponent the kernel is e^-1e9: zero in double precision, and no
# weight series summable in states.MAX_TERMS terms compensates it
_KRATZEL_FLOOR = -1e9


def _kratzel(p: KratzelParams, log_u, rel_tol: float) -> np.ndarray:
    """ln of kratzel_kernel at u = exp(log_u), one trapezoid row per entry; -inf
    for rows whose exponent lies below _KRATZEL_FLOOR.

    The exponent phi(t) = a t - e^(log_u - t) - e^(t/lam), a = mu/lam - 1, is
    concave.  Each row is shifted by phi at the better of two points: where the
    exponentials balance (phi' = a) and where a balances the one on its side;
    phi is within |a| max(1, lam) ln 2 of its maximum there.  With A, B the
    exponentials at that point, phi(t + d) - phi(t) = a d - A expm1(-d)
    - B expm1(d/lam) rounds like sqrt(A + B), not like A + B.  The window ends
    where its quadratic or its exponential upper bound falls to -50.
    """
    lam, a = p.lam, p.mu / p.lam - 1.0
    shape, log_u = np.shape(log_u), np.ravel(log_u).astype(float)
    t_bal = lam * (log_u + math.log(lam)) / (1.0 + lam)
    t_a = (np.full_like(log_u, lam * math.log(a * lam)) if a > 0
           else log_u - math.log(-a) if a < 0 else t_bal)
    # clipped where both exponentials are finite
    points = np.clip(np.stack([t_bal, t_a]), log_u - 700.0, 700.0 * lam)
    values = a * points - np.exp(log_u - points) - np.exp(points / lam)
    best = np.argmax(values, axis=0)[None]
    peak, shift = (np.take_along_axis(x, best, 0)[0] for x in (points, values))
    out = np.full(log_u.shape, -np.inf)
    rows = shift > _KRATZEL_FLOOR
    log_u, peak, shift = log_u[rows], peak[rows], shift[rows]
    A, B = np.exp(log_u - peak), np.exp(peak / lam)
    slope = a + A - B / lam
    # the window is at most 700 (700 lam) wide on each side: expm1 stays finite
    big = np.log(50.0 + A + B + 700.0 * max(1.0, lam) * abs(a))
    with np.errstate(divide="ignore"):  # A or B underflowed: no quadratic bound
        left = (np.sqrt(slope ** 2 + 100.0 * A) - slope) / A
        right = (np.sqrt(slope ** 2 + 100.0 * B / lam ** 2) + slope) * lam ** 2 / B
    lo = np.maximum.reduce([peak - left, log_u - big, peak - 700.0])
    hi = np.minimum.reduce([peak + right, lam * big, peak + 700.0 * lam])
    integral = _trapezoid(
        lambda t, peak, A, B: np.exp(a * (t - peak) - A * np.expm1(peak - t)
                                     - B * np.expm1((t - peak) / lam)),
        rel_tol, lo, hi, peak, A, B)[0]
    out[rows] = shift + np.log(integral) - math.log(lam)
    return out.reshape(shape)


def kratzel_kernel(p: KratzelParams, u: float, rel_tol: float = 1e-8) -> float:
    """Kraetzel kernel lam^-1 * int_0^inf v^(mu/lam - 2) exp(-u/v - v^(1/lam)) dv.

    Equals the H^{2,0}_{0,2} Fox-H special case whose Mellin transform is
    Gamma(s) Gamma(lam*s + mu - lam).  Evaluated on the v = exp(t) axis where
    the integrand decays doubly exponentially at both ends; 0 where the kernel
    underflows.
    """
    if u <= 0:
        raise ValueError("kratzel_kernel requires u > 0")
    return math.exp(_kratzel(p, math.log(u), rel_tol))
