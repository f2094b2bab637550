"""Excitation-number moments, Mandel Q, sign conditions and correlation."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .gseq import AsymptoticFamily, GSequence, asymptotic_leading_term
from .specfun import _log_sum_exp
from .states import (INFINITE, ExcitationDistribution, StateSpec,
                     excitation_distribution)

BOUNDARY_TOL = 1e-12


class UndefinedAtOriginError(ValueError):
    """Q and g2 divide by the mean excitation number, which vanishes at z = 0."""


class Regime(enum.Enum):
    SUB_POISSONIAN = "sub-poissonian"
    POISSONIAN = "poissonian"
    SUPER_POISSONIAN = "super-poissonian"


class SmallLabelSign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    DEPENDS_ON_HIGHER_ORDER = "depends-on-higher-order"


@dataclass(frozen=True)
class QReport:
    q: float
    mean_n: float
    var_n: float
    regime: Regime

    def to_json(self) -> dict[str, Any]:
        return {"q": self.q, "mean_n": self.mean_n, "var_n": self.var_n,
                "regime": self.regime.value}


def number_moments(dist: ExcitationDistribution) -> tuple[float, float]:
    """(mean, second moment) of the excitation-number distribution."""
    n = np.arange(len(dist.probs), dtype=float)
    return float(np.sum(n * dist.probs)), float(np.sum(n * n * dist.probs))


def _classify(q: float) -> Regime:
    if q < -BOUNDARY_TOL:
        return Regime.SUB_POISSONIAN
    if q > BOUNDARY_TOL:
        return Regime.SUPER_POISSONIAN
    return Regime.POISSONIAN


def mandel_q(spec: StateSpec) -> QReport:
    """Q = var(N)/mean(N) - 1 from the excitation distribution."""
    if spec.z == 0:
        raise UndefinedAtOriginError("Mandel Q is undefined at z = 0 (mean count is 0)")
    dist = excitation_distribution(spec)
    mean, m2 = number_moments(dist)
    var = m2 - mean * mean
    q = var / mean - 1.0
    return QReport(q=q, mean_n=mean, var_n=var, regime=_classify(q))


def _log_weighted_sum(log_g: np.ndarray, log_u: float, offset: int,
                      log_weight) -> float:
    """ln sum_{n=0}^{k-offset} weight(n) u^n / g(n+offset), log_g = ln g(0..k)."""
    n = np.arange(len(log_g) - offset)
    return _log_sum_exp(log_weight(n) + n * log_u - log_g[offset:])


def mandel_q_closed_form(seq: GSequence, k: int, u: float) -> float:
    """Q_k(u) from the three-series closed form (finite k >= 1), cross-check path.

    At k = 1 the first series is empty and Q_1 = -g(0) u / (g(1) + g(0) u).
    """
    if u <= 0:
        raise UndefinedAtOriginError("Mandel Q is undefined at z = 0")
    if k < 1:
        raise ValueError("closed form requires k >= 1")
    log_g = seq.log_g_array(np.arange(k + 1))
    log_u = math.log(u)
    s2 = _log_weighted_sum(log_g, log_u, 2, lambda n: np.log((n + 1.0) * (n + 2.0)))
    s1 = _log_weighted_sum(log_g, log_u, 1, lambda n: np.log(n + 1.0))
    s0 = _log_weighted_sum(log_g, log_u, 0, lambda n: 0.0)
    return u * (math.exp(s2 - s1) - math.exp(s1 - s0))


def mandel_q2_closed_form(seq: GSequence, u: float) -> float:
    """The explicit k = 2 rational form of Q_2(u)."""
    if u <= 0:
        raise UndefinedAtOriginError("Mandel Q is undefined at z = 0")
    g0, g1, g2 = seq.g(0), seq.g(1), seq.g(2)
    a = 2.0 * g1 / (g2 + 2.0 * g1 * u)
    b = g0 * (g2 + 2.0 * g1 * u) / (g1 * g2 + g0 * g2 * u + g0 * g1 * u * u)
    return u * (a - b)


def q_small_label_sign(seq: GSequence, k) -> SmallLabelSign:
    """Sign of Q_k as |z| -> 0+, from the g(0..3) ratio conditions."""
    if k != INFINITE and k < 2:
        raise ValueError("the small-label sign conditions require k >= 2")
    g0, g1, g2 = seq.g(0), seq.g(1), seq.g(2)
    r2 = g0 * g2 / (g1 * g1)
    if r2 < 2.0 - BOUNDARY_TOL:
        return SmallLabelSign.POSITIVE
    if r2 > 2.0 + BOUNDARY_TOL:
        return SmallLabelSign.NEGATIVE
    # boundary ratio = 2
    if k == 2:
        return SmallLabelSign.NEGATIVE
    r3 = g0 * seq.g(3) / (g1 * g2)
    if r3 < 3.0 - BOUNDARY_TOL:
        return SmallLabelSign.POSITIVE
    if r3 > 3.0 + BOUNDARY_TOL:
        return SmallLabelSign.NEGATIVE
    if k == 3:
        return SmallLabelSign.NEGATIVE
    return SmallLabelSign.DEPENDS_ON_HIGHER_ORDER


def q2_zero_crossing(seq: GSequence) -> float | None:
    """zeta_0, the |z| where Q_2 changes sign; None when g(0)g(2)/g(1)^2 >= 2."""
    g0, g1, g2 = seq.g(0), seq.g(1), seq.g(2)
    r2 = g0 * g2 / (g1 * g1)
    if r2 >= 2.0 - BOUNDARY_TOL:
        return None
    inner = math.sqrt(4.0 * g1 * g1 / (g0 * g2) - 1.0) - 1.0
    return math.sqrt(g2 / (2.0 * g1) * inner)


def q_large_label_approx(seq: GSequence, k: int, z: complex) -> float:
    """Two-term large-label form Q_k ~ -1 + g(k)/(k g(k-1)) |z|^-2."""
    if k < 2:
        raise ValueError("large-label approximation requires k >= 2")
    u = abs(z) ** 2
    if u < 1.0:
        raise ValueError("large-label approximation requires |z| >= 1")
    ratio = math.exp(seq.log_g(k) - seq.log_g(k - 1)) / k
    return -1.0 + ratio / u


def correlation_g2(spec: StateSpec) -> float:
    """Second-order correlation sum n(n-1)p(n) / (sum n p(n))^2."""
    if spec.z == 0:
        raise UndefinedAtOriginError("g2 is undefined at z = 0 (mean count is 0)")
    if spec.k != INFINITE and spec.k < 1:
        raise ValueError("g2 requires k >= 1")
    dist = excitation_distribution(spec)
    n = np.arange(len(dist.probs), dtype=float)
    mean = float(np.sum(n * dist.probs))
    fact2 = float(np.sum(n * (n - 1.0) * dist.probs))
    return fact2 / (mean * mean)


@dataclass(frozen=True)
class MLAsymptotics:
    alpha: float
    beta: float


@dataclass(frozen=True)
class WrightAsymptotics:
    lam: float
    mu: float


@dataclass(frozen=True)
class G1Asymptotics:
    nu: float
    rho: float
    w: float


@dataclass(frozen=True)
class GeneralAsymptotics:
    family: AsymptoticFamily


def p_asymptotic(kind, n: int, u: float, norm: float) -> float:
    """Large-n approximation of the excitation probability p(n).

    norm is the (truncated or not) normalization-series value dividing the
    distribution; the ratio to the exact p(n) tends to 1 as n grows.
    """
    if n < 10:
        raise ValueError("asymptotic form is meant for n >= 10")
    log_u = math.log(u)
    two_pi = 2.0 * math.pi
    if isinstance(kind, MLAsymptotics):
        a, b = kind.alpha, kind.beta
        log_p = (n * log_u + a * n + (-a * n - b + 0.5) * math.log(a * n)
                 - 0.5 * math.log(two_pi) - math.log(norm))
    elif isinstance(kind, WrightAsymptotics):
        lam, mu = kind.lam, kind.mu
        log_p = (n * log_u + (lam + 1.0) * n + (-lam * n - mu + 0.5) * math.log(lam)
                 + (-(lam + 1.0) * n - mu) * math.log(n)
                 - math.log(two_pi) - math.log(norm))
    elif isinstance(kind, G1Asymptotics):
        nu, rho, w = kind.nu, kind.rho, kind.w
        e = (n + nu + 1.0) / rho
        x = n / rho
        log_p = (e * math.log(w) + n * log_u + x + (-e + 0.5) * math.log(x)
                 - 0.5 * math.log(two_pi) - math.log(norm))
    elif isinstance(kind, GeneralAsymptotics):
        lead = asymptotic_leading_term(kind.family, n)
        log_p = n * log_u + math.log(lead) - math.log(norm)
    else:
        raise TypeError(f"unknown asymptotics kind: {kind!r}")
    return math.exp(log_p)
