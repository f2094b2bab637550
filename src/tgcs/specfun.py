"""Special functions underlying the coherent-state constructions, and the
package's two numerical kernels: the shifted log-sum rows and the log-axis
trapezoid rule.

Everything here works on real nonnegative arguments except the truncated
series, which is a plain degree-k polynomial and accepts complex input.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .gseq import GSequence, WrightProduct


class SeriesConvergenceError(RuntimeError):
    """Raised when a series hits SERIES_MAX_TERMS before the stopping rule fires."""

    def __init__(self, message: str, partial_sum: float, last_term: float):
        super().__init__(f"{message} (partial sum {partial_sum!r}, last term {last_term!r})")
        self.partial_sum = partial_sum
        self.last_term = last_term


class QuadratureError(RuntimeError):
    """Raised when an improper integral does not reach the requested accuracy."""

    def __init__(self, message: str, value: float = math.nan, error: float = math.inf):
        super().__init__(f"{message} (best estimate {value!r}, error estimate {error!r})")
        self.value = value
        self.error = error


# the stopping rule and term cap of the scalar series mittag_leffler and wright;
# SERIES_ABS_TOL also sets the tail bound of the k = inf sums in states
SERIES_ABS_TOL = 1e-14
SERIES_REL_TOL = 1e-14
SERIES_MAX_TERMS = 10_000
QUAD_TOL = 1e-8  # of the Mellin, Kraetzel, radial-moment and Bargmann quadratures
_LN_MAX = math.log(sys.float_info.max)  # math.exp overflows past it


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
        term = math.exp(lt) if lt < _LN_MAX else math.inf
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


def truncated_series_scaled(g: "GSequence", k: int, z: complex) -> tuple[complex, float]:
    """sum_{n=0}^{k} z^n / g(n), a degree-k polynomial, as (mantissa, log_scale): the
    value mantissa * exp(log_scale), representable where the plain sum of far-apart
    overlap labels overflows.  One _shifted_rows row at ln |z| (the Kronecker row at
    z = 0) gives the magnitudes and, as its largest log term, log_scale."""
    if k < 0:
        raise ValueError("k must be >= 0")
    z, n = complex(z), np.arange(k + 1)
    (m, (w,), _), = _shifted_rows(g.log_g_array(n), 0, [_log_label(abs(z))])
    terms = w * (z / abs(z) if z else 1.0) ** n
    # ascending-magnitude summation keeps the small terms from being swamped
    return complex(np.sum(terms[np.argsort(w)])), m.item()


def _log_sum_exp(log_terms: np.ndarray) -> float:
    """ln sum exp(log_terms) of a 1-D array, shifted by its max, through math.log
    as every scalar sum here; -inf for the empty sum.  The closed-form Q's own
    route, independent of _shifted_rows, which gives p(n), N and ln T."""
    if len(log_terms) == 0:
        return -math.inf
    m = float(np.max(log_terms))
    return m + math.log(float(np.sum(np.exp(log_terms - m))))


# exp(x) is exactly 0.0 below x = -745.14: a term this far below the largest
# adds nothing to a row
_LOG_UNDERFLOW = -746.0
_BLOCK = 1 << 20  # entries of a row block built at once


def _log_label(u: float) -> float:
    """ln u by math.log, as the scalar sums take it; -inf at u = 0, the Kronecker row."""
    return math.log(u) if u else -math.inf


def _shifted_rows(log_g: np.ndarray, n0: int, log_u) -> Iterator[tuple[np.ndarray, ...]]:
    """(m, w, sum of w) per block of at most _BLOCK entries, one row per entry of
    log_u = ln u, all from the ln g table log_g = ln g(n0..): each row's largest
    log term m = max ln(u^n / g(n)) and its terms over it, w = exp(ln(u^n / g(n))
    - m) for n = 0.., with n0 zeros first.  The one log-sum kernel, behind p(n), N,
    ln T, the CLI grids, the truncated series (at u = |z|) and the zeros.  A term
    more than -_LOG_UNDERFLOW below m stays 0.0, as exp would round it, without
    numpy's slow underflow path."""
    log_u = np.asarray(log_u, dtype=float)
    n = np.arange(n0, n0 + len(log_g))
    skip = int(n0 == 0)  # the n = 0 column stays 0: 0 ln u would be nan at u = 0
    step = max(1, _BLOCK // len(log_g))
    for i in range(0, len(log_u), step):
        lt = np.zeros((min(step, len(log_u) - i), len(log_g)))
        np.multiply(log_u[i:i + step, None], n[skip:], out=lt[:, skip:])
        lt -= log_g
        m = lt.max(axis=1, keepdims=True)
        lt -= m
        w = np.zeros((len(lt), n0 + len(log_g)))
        np.exp(lt, out=w[:, n0:], where=lt > _LOG_UNDERFLOW)
        yield m, w, w.sum(axis=1, keepdims=True)


_TRIM = 1e-20   # a row's support: its nodes above this fraction of its largest
_NODES = 1 << 22  # the most nodes one pass of _trapezoid samples
_EPS = float(np.finfo(float).eps)


@np.errstate(all="ignore")  # inf ends, as at s_left = 0; NaN ones from inf * 0
def _window(c: float, p: float, s_left: float, s_right: float,
            n: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The t window of F u^(n+1) ~ e^((s_left + n) t) (t -> -inf), ~ e^((s_right + n) t
    - c e^(t/p)) (t -> inf), and its starting step: from e^-60 below the decay's onset
    c e^(t/p) = 1 to where the right tail falls below e^-800, and min(0.5, p/2), which
    resolves the cliff of width p.  QuadratureError where an end is not finite, as at
    p = inf or s_left + n = 0."""
    s = s_right + n
    hi = np.full(np.shape(s), p * math.log(800.0 / c))
    for _ in range(8):  # to the fixed point from below, each step p s / (800 + s t) closer
        hi = p * np.log((800.0 + np.maximum(s * hi, 0.0)) / c)
    lo = -60.0 / (s_left + n) - p * math.log(c)
    if not (np.isfinite(lo) & np.isfinite(hi)).all():
        raise QuadratureError("window: the integrand lies outside the double range")
    return lo, hi, min(0.5, p / 2.0)


@np.errstate(all="ignore")  # an f that overflows or gives NaN is refused below
def _trapezoid(f, tol: float, lo, hi, step, *params) -> np.ndarray:
    """The integrals of e^f over [lo, hi] on the log axis t = ln u, one per row.

    The one quadrature behind every integral of the package.  One row per
    entry of lo, hi, step and params, each window and starting step its
    caller's (_window, from the integrand's tails); f(t, *p) takes a flat array
    of nodes and each parameter repeated at its row's nodes, and gives ln F
    there, ln|F| + i pi where F < 0.  Each row is summed as e^(f - m), m its
    largest Re f on one grid of about its step, as _shifted_rows shifts its
    rows, and scaled by e^m at the end: no F need be a double.  That first grid
    checks the window: past each end where F is above _TRIM e^m, the exponential
    through F there and at its neighbour leaves end h / ln(inner / end) outside,
    unbounded where F does not fall outward (a bound that does not depend on h
    for an exponential tail, and only grows with h where ln F is concave
    outward).  It then trims each row to its nodes above _TRIM e^m, plus two
    each side (so that a zero of F at a node does not cut off a lobe beyond
    it), and h halves until the change in a row's sum, plus the rounding floor
    eps * |sum|, is within tol of the sum.  On these analytic integrands, which
    decay exponentially or doubly exponentially in t, the rule converges
    exponentially in 1/h once the window holds the support and h resolves the
    decay (Trefethen & Weideman, SIAM Rev. 56, 2014).  Raises QuadratureError
    (any value and error it reports scaled by e^m) on an empty window, an f NaN
    or +inf at a node or -inf at every node of a first grid, tails that leave
    more than tol * |sum| on the first grid, before any halving, a change at
    the rounding floor that misses tol, a pass of more than _NODES nodes, which
    ends every row that does not converge, and an integral that is not a
    normal double.
    """
    lo, hi, step, *params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi, step, *params)))
    if not (lo < hi).all():  # NaN too; a peak narrower than the rounding of t
        raise QuadratureError("trapezoid: an empty window")

    def sample(idx, start, step, count):  # ln F at start + step * j, j < count, rows idx
        if not count.sum() <= _NODES:  # inf too; as floats, before a huge count wraps
            raise QuadratureError(f"trapezoid: a pass of more than {_NODES} nodes")
        count = count.astype(int)
        r = np.repeat(idx, count)
        j = np.arange(r.size) - np.repeat(np.cumsum(count) - count, count)
        return r, j, f(start[r] + step[r] * j, *(p[r] for p in params))

    def shifted(r, lf):  # F over e^m of its row; NaN throughout a row whose m is not finite
        v = np.exp(lf - m[r]).real
        if not math.isfinite(v.sum()):
            raise QuadratureError("trapezoid: integrand not finite, or 0 at every node")
        return v

    def refusal(message, row, error):  # the row's sum and error scaled by e^m
        half = np.exp(m[row] / 2.0)  # e^m in halves: it overflows only where the product does
        return QuadratureError(message, float(total[row] * half * half),
                               float(error * half * half))

    n = np.ceil((hi - lo) / step)  # >= 1 in a window that is not empty
    h = (hi - lo) / n
    r, j, lf = sample(np.arange(lo.size), lo, h, n + 1)
    n = n.astype(int)
    starts = np.cumsum(n + 1) - n - 1
    m = np.maximum.reduceat(lf.real, starts)
    v = shifted(r, lf)
    # F over e^m at each end of the window and next to it
    end, inner = np.abs(v[[starts, starts + n]]), np.abs(v[[starts + 1, starts + n - 1]])
    tail = np.where(end > _TRIM, np.where(end < inner, end * h / np.log(inner / end), np.inf),
                    0.0).sum(axis=0)
    big = np.abs(v) > _TRIM
    first = np.maximum(np.minimum.reduceat(np.where(big, j, n[r]), starts) - 2, 0)
    last = np.minimum(np.maximum.reduceat(np.where(big, j, 0), starts) + 2, n)
    lo = lo + h * first
    fr, lr = first[r], last[r]
    v = v * (((j >= fr) & (j <= lr)) - 0.5 * (j == fr) - 0.5 * (j == lr))
    total = h * np.bincount(r, v, minlength=lo.size)
    cut = np.flatnonzero(tail > tol * np.abs(total))
    if cut.size:
        raise refusal("trapezoid: the window cuts off a tail", cut[0], tail[cut[0]])
    n = last - first  # >= 1: the node at m and a neighbour
    idx = np.arange(lo.size)
    while idx.size:
        h[idx] /= 2.0
        r, _, lf = sample(idx, lo + h, 2.0 * h, n[idx])
        n[idx] *= 2
        prev = total[idx]
        total[idx] = prev / 2.0 + h[idx] * np.bincount(r, shifted(r, lf), minlength=lo.size)[idx]
        change, floor = np.abs(total[idx] - prev), _EPS * np.abs(total[idx])
        error = change + floor
        open_ = error > tol * np.abs(total[idx])
        stuck = np.flatnonzero(open_ & (change <= floor))
        if stuck.size:
            raise refusal("trapezoid: tol below the rounding floor", idx[stuck[0]],
                          error[stuck[0]])
        idx = idx[open_]
    total = total * np.exp(m / 2.0) * np.exp(m / 2.0)  # e^m in halves, as in refusal
    if not ((sys.float_info.min <= np.abs(total)) & (np.abs(total) <= sys.float_info.max)).all():
        raise QuadratureError("trapezoid: the integral lies outside the double range")
    return total


_CHEB_TOL = 1e-12  # of the chop test, on the last eighth of the coefficients
_CHEB_CAP = 2048   # the largest N of _chebyshev
_CHEB_BLOCK = 1 << 18  # elements of one (x, node) block of the interpolant


def _chebyshev(f, *edges: float):
    """f on [edges[0], edges[-1]] as one callable on 1-D arrays, piecewise: on each
    panel [a, b] between consecutive edges, its interpolant in the Chebyshev points
    of the second kind, t_j = (a + b)/2 + (b - a)/2 cos(pi j / N), j = 0..N.

    A panel per regime of f keeps each one smooth on its own (Pachon, Platte &
    Trefethen, IMA J. Numer. Anal. 30, 2010).  On each panel N starts at 64 and
    doubles; the points are nested, so each doubling evaluates f at the N new
    ones only, and one call of f takes the new points of every panel still open.
    A panel stops once the largest of its last N/8 Chebyshev coefficients is
    within _CHEB_TOL (the chop test, Aurentz & Trefethen, ACM TOMS 43, 2017),
    all of them from one rfft of the values mirrored, a DCT-I.  Each interpolant
    is the barycentric formula of the second kind, weights (-1)^j halved at the
    ends (Berrut & Trefethen, SIAM Rev. 46, 2004), evaluated in blocks of
    _CHEB_BLOCK elements; at a node it gives f there, at an inner edge from the
    panel on its left.  Raises QuadratureError on a non-finite f and where a
    panel at N = _CHEB_CAP does not pass the test.
    """
    a, b = np.array(edges[:-1], dtype=float), np.array(edges[1:], dtype=float)
    mid, half, n = (a + b) / 2.0, (b - a) / 2.0, [64] * a.size
    t = [m + h * np.cos(np.pi * np.arange(65) / 64) for m, h in zip(mid, half)]
    v = np.split(f(np.concatenate(t)), a.size)
    open_ = range(a.size)
    while open_ := [i for i in open_ if not _chopped(v[i], n[i])]:
        new = [mid[i] + half[i] * np.cos(np.pi * np.arange(1, 2 * n[i], 2) / (2 * n[i]))
               for i in open_]
        add = np.split(f(np.concatenate(new)), np.cumsum([x.size for x in new])[:-1])
        for i, x, y in zip(open_, new, add):
            between = np.arange(1, n[i] + 1)
            t[i], v[i], n[i] = np.insert(t[i], between, x), np.insert(v[i], between, y), 2 * n[i]
    w = [(-1.0) ** np.arange(k + 1) for k in n]
    for wi in w:
        wi[[0, -1]] /= 2.0
    inner = np.array(edges[1:-1], dtype=float)

    def interpolant(x):
        out, which = np.empty(x.size), np.searchsorted(inner, x)
        for i, (ti, vi, wi) in enumerate(zip(t, v, w)):
            at = np.flatnonzero(which == i)
            rows = max(1, _CHEB_BLOCK // ti.size)
            for s in range(0, at.size, rows):
                block = at[s:s + rows]
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = wi / (x[block, None] - ti)
                    y = (q @ vi) / q.sum(axis=1)
                hit = ~np.isfinite(y)  # x at a node (or within a subnormal of it)
                y[hit] = vi[np.argmax(np.isinf(q[hit]), axis=1)]
                out[block] = y
        return out

    return interpolant


def _chopped(v: np.ndarray, n: int) -> bool:
    """The chop test of _chebyshev on a panel's values v at its n + 1 points;
    QuadratureError where v is not finite or n = _CHEB_CAP fails it."""
    if not np.isfinite(v).all():
        raise QuadratureError("chebyshev: f not finite")
    c = np.abs(np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real) / n
    tail = max(c[-(n // 8):-1].max(), c[-1] / 2.0)
    if tail > _CHEB_TOL and n >= _CHEB_CAP:
        raise QuadratureError(f"chebyshev: not resolved by {n} + 1 points", math.nan, tail)
    return tail <= _CHEB_TOL


# past this exponent the kernel is e^-1e9: zero in double precision, and no
# weight series summable in states.MAX_TERMS terms compensates it
_KRATZEL_FLOOR = -1e9


@np.errstate(all="ignore")  # a bound that overflows or is NaN: see the window below
def _kratzel(lam: float, mu: float, log_u) -> np.ndarray:
    """ln of kratzel_kernel at u = exp(log_u), one trapezoid row per entry at
    QUAD_TOL; -inf for rows whose exponent lies below _KRATZEL_FLOOR.

    The exponent phi(t) = a t - e^(log_u - t) - e^(t/lam), a = mu/lam - 1, is
    concave.  Each row is shifted by phi at the better of two points: where the
    exponentials balance (phi' = a) and where a balances the one on its side;
    phi is within |a| max(1, lam) ln 2 of its maximum there.  With A, B the
    exponentials at that point, phi(t + d) - phi(t) = a d - A expm1(-d)
    - B expm1(d/lam), the ln of the integrand, rounds like sqrt(A + B), not like
    A + B.  The window ends where its quadratic or its exponential upper bound
    falls to -50.  Its starting step, min(0.5, lam/2, 1/sqrt(A + B/lam^2)),
    resolves the e^(t/lam) cliff and the row's own peak: phi'' = -(A + B/lam^2)
    at the shift point, so the last is the peak's Gaussian width, at which the
    trapezoid error is about e^(-2 pi^2) = 2.7e-9, below QUAD_TOL (Trefethen &
    Weideman, SIAM Rev. 56, 2014).  QuadratureError where phi there is not
    finite, as at mu/lam = 1e300.
    """
    a = mu / lam - 1.0
    shape, log_u = np.shape(log_u), np.ravel(log_u).astype(float)
    t_bal = lam * (log_u + math.log(lam)) / (1.0 + lam)
    t_a = (np.full_like(log_u, lam * math.log(a * lam)) if a > 0
           else log_u - math.log(-a) if a < 0 else t_bal)
    # clipped where both exponentials are finite
    points = np.clip(np.stack([t_bal, t_a]), log_u - 700.0, 700.0 * lam)
    values = a * points - np.exp(log_u - points) - np.exp(points / lam)
    best = np.argmax(values, axis=0)[None]
    peak, shift = (np.take_along_axis(x, best, 0)[0] for x in (points, values))
    if not (shift < math.inf).all():  # NaN too
        raise QuadratureError("kratzel: ln of the kernel lies outside the double range")
    out = np.full(log_u.shape, -np.inf)
    rows = shift > _KRATZEL_FLOOR
    log_u, peak, shift = log_u[rows], peak[rows], shift[rows]
    A, B = np.exp(log_u - peak), np.exp(peak / lam)
    slope = a + A - B / lam
    # the window is at most 700 (700 lam) wide on each side: expm1 stays finite
    big = np.log(50.0 + A + B + 700.0 * max(1.0, lam) * abs(a))
    # A or B underflowed, or is small enough for its bound to overflow: no quadratic bound
    root = np.hypot(slope, 10.0 * np.sqrt(B) / lam)
    left = (np.hypot(slope, 10.0 * np.sqrt(A)) - slope) / A
    # the same value, without the cancellation of root + slope where slope < 0
    right = np.where(slope < 0, 100.0 / (root - slope), (root + slope) * (lam * lam) / B)
    # fmax/fmin drop a NaN bound: 0/0 where A or B underflowed and the slope is 0
    lo = np.fmax.reduce([peak - left, log_u - big, peak - 700.0])
    hi = np.fmin.reduce([peak + right, lam * big, peak + 700.0 * lam])
    # 1/sqrt(A + B/lam^2), written so that it overflows nowhere (A, B <= e^700)
    width = lam / np.hypot(lam * np.sqrt(A), np.sqrt(B))
    integral = _trapezoid(
        lambda t, peak, A, B: (a * (t - peak) - A * np.expm1(peak - t)
                               - B * np.expm1((t - peak) / lam)),
        QUAD_TOL, lo, hi, np.fmin(min(0.5, lam / 2.0), width), peak, A, B)
    out[rows] = shift + np.log(integral) - math.log(lam)
    return out.reshape(shape)


def kratzel_kernel(seq: "WrightProduct", u: float) -> float:
    """Kraetzel kernel of seq, lam^-1 int_0^inf v^(mu/lam - 2) exp(-u/v - v^(1/lam)) dv.

    Equals the H^{2,0}_{0,2} Fox-H special case whose Mellin transform is
    Gamma(s) Gamma(lam*s + mu - lam).  Evaluated on the v = exp(t) axis where
    the integrand decays doubly exponentially at both ends; 0 where the kernel
    underflows; QuadratureError where it overflows a double.
    """
    if not 0 < u < math.inf:  # NaN too
        raise ValueError("kratzel_kernel requires a finite u > 0")
    if not (log_z := _kratzel(seq.lam, seq.mu, math.log(u)).item()) < _LN_MAX:
        raise QuadratureError("kratzel_kernel: the kernel overflows a double", math.inf, math.nan)
    return math.exp(log_z)
