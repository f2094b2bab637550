"""Special functions underlying the coherent-state constructions.

Everything here works on real nonnegative arguments except the truncated
series, which is a plain degree-k polynomial and accepts complex input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import integrate

if TYPE_CHECKING:
    from .gseq import GSequence


class SeriesConvergenceError(RuntimeError):
    """Raised when a series hits max_terms before the stopping rule fires."""

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


@dataclass(frozen=True)
class SeriesEvalPolicy:
    abs_tol: float = 1e-14
    rel_tol: float = 1e-14
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_POLICY = SeriesEvalPolicy()


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


def _positive_series(log_term, policy: SeriesEvalPolicy, name: str) -> float:
    """Kahan-summed positive series with the term-based stopping rule.

    log_term(n) returns ln of the n-th (nonnegative) term.  Stops once two
    consecutive terms fall below abs_tol + rel_tol*|partial sum|; two terms
    because the term sequence need not be monotone.
    """
    total = 0.0
    comp = 0.0
    small_streak = 0
    term = 0.0
    for n in range(policy.max_terms):
        lt = log_term(n)
        term = math.exp(lt) if lt < 709.0 else math.inf
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise SeriesConvergenceError(f"{name}: series overflow", total, term)
        if term <= policy.abs_tol + policy.rel_tol * total:
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise SeriesConvergenceError(f"{name}: max_terms reached", total, term)


def mittag_leffler(alpha: float, beta: float, x: float,
                   policy: SeriesEvalPolicy = DEFAULT_POLICY) -> float:
    """E_{alpha,beta}(x) = sum_n x^n / Gamma(alpha*n + beta), x >= 0."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("mittag_leffler requires alpha > 0 and beta > 0")
    if x < 0:
        raise ValueError("mittag_leffler requires x >= 0")
    if x == 0:
        return 1.0 / math.gamma(beta)
    lx = math.log(x)
    return _positive_series(lambda n: n * lx - math.lgamma(alpha * n + beta),
                            policy, "mittag_leffler")


def wright(lam: float, mu: float, x: float,
           policy: SeriesEvalPolicy = DEFAULT_POLICY) -> float:
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
        policy, "wright")


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


def log_truncated_series(g: "GSequence", k: int, log_u: float) -> float:
    """ln of sum_{n=0}^{k} u^n / g(n) for u = exp(log_u) > 0."""
    n = np.arange(k + 1)
    return _log_sum_exp(n * log_u - g.log_g_array(n))


def _scaled_exp(log_terms: np.ndarray) -> tuple[float, np.ndarray]:
    """(m, exp(log_terms - m)) with m = max(log_terms): the one max shift behind
    every positive log-series here, whose sums overflow long before their logs."""
    m = float(np.max(log_terms))
    return m, np.exp(log_terms - m)


def _log_sum_exp(log_terms: np.ndarray) -> float:
    """ln sum exp(log_terms); -inf for the empty sum."""
    if len(log_terms) == 0:
        return -math.inf
    m, w = _scaled_exp(log_terms)
    return m + math.log(float(np.sum(w)))


def kratzel_kernel(p: KratzelParams, u: float, rel_tol: float = 1e-8) -> float:
    """Kraetzel kernel lam^-1 * int_0^inf v^(mu/lam - 2) exp(-u/v - v^(1/lam)) dv.

    Equals the H^{2,0}_{0,2} Fox-H special case whose Mellin transform is
    Gamma(s) Gamma(lam*s + mu - lam).  Evaluated on the v = exp(t) axis where
    the integrand decays doubly exponentially at both ends.
    """
    if u <= 0:
        raise ValueError("kratzel_kernel requires u > 0")
    lam, mu = p.lam, p.mu
    a = mu / lam - 1.0

    log_u = math.log(u)

    def integrand(t: float) -> float:
        arg = a * t - math.exp(log_u - t) - math.exp(t / lam)
        return math.exp(arg) if arg > -700.0 else 0.0

    # the exp(log_u - t) factor kills everything left of log_u - 8 and the
    # exp(t/lam) factor everything right of lam*ln(700); breakpoints mark the
    # power-law plateau in between
    lo = log_u - 8.0
    hi = lam * math.log(700.0) + 1.0
    if lo >= hi:
        return 0.0  # exp(-u/v) and exp(-v^(1/lam)) leave no support
    pts = sorted(p for p in (log_u, 0.0) if lo < p < hi)
    val, err = integrate.quad(integrand, lo, hi, limit=400,
                              points=pts or None,
                              epsabs=1e-300, epsrel=rel_tol)
    if val < 0 or err > max(rel_tol * abs(val) * 10, 1e-290):
        raise QuadratureError("kratzel_kernel quadrature did not converge", val, err)
    return val / lam
