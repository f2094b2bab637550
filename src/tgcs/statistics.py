"""Excitation-number moments, Mandel Q, sign conditions and correlation."""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gseq import G1, AsymptoticFamily, AsymptoticTerm, GSequence, MLGamma, WrightProduct
from .specfun import _LN_MAX, _log_sum_exp
from .states import (INFINITE, ExcitationDistribution, StateSpec, _modulus_squared,
                     _truncation_level, excitation_distribution)

BOUNDARY_TOL = 1e-12
_LN_MIN = math.log(sys.float_info.min)


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


def _moments(probs: np.ndarray, falling: bool) -> tuple[np.ndarray, np.ndarray]:
    """(<n>, <n^2>), or (<n>, <n(n-1)>) if falling, of each row of probabilities."""
    n = np.arange(probs.shape[-1], dtype=float)
    return (n * probs).sum(axis=-1), (n * (n - 1.0 if falling else n) * probs).sum(axis=-1)


def _q(mean, m2):
    """Q = var/mean - 1 from the first two moments."""
    return (m2 - mean * mean) / mean - 1.0


def _spec_moments(spec: StateSpec, falling: bool) -> tuple[float, float]:
    mean, m = (float(x) for x in _moments(excitation_distribution(spec).probs, falling))
    if mean == 0:
        raise UndefinedAtOriginError("Q and g2 divide by the mean count, here 0 (|z|^2 or k is 0)")
    return mean, m


def number_moments(dist: ExcitationDistribution) -> tuple[float, float]:
    """(mean, second moment) of the excitation-number distribution."""
    mean, m2 = _moments(dist.probs, False)
    return float(mean), float(m2)


def _classify(q: float) -> Regime:
    if q < -BOUNDARY_TOL:
        return Regime.SUB_POISSONIAN
    if q > BOUNDARY_TOL:
        return Regime.SUPER_POISSONIAN
    return Regime.POISSONIAN


def mandel_q(spec: StateSpec) -> QReport:
    """Q = var(N)/mean(N) - 1 from the excitation distribution."""
    mean, m2 = _spec_moments(spec, False)
    q = _q(mean, m2)
    return QReport(q=q, mean_n=mean, var_n=m2 - mean * mean, regime=_classify(q))


def _label(u: float) -> float:
    """u = |z|^2 as the closed forms and p_asymptotic take it: finite, and > 0
    (Q divides by the mean count, which vanishes at z = 0)."""
    if not math.isfinite(u):
        raise ValueError(f"|z|^2 must be a finite number, got {u}")
    if u <= 0:
        raise UndefinedAtOriginError(f"undefined at z = 0: |z|^2 must be > 0, got {u}")
    return u


def _log_weighted_sum(log_g: np.ndarray, log_u: float, offset: int,
                      log_weight) -> float:
    """ln sum_{n=0}^{k-offset} weight(n) u^n / g(n+offset), log_g = ln g(0..k)."""
    n = np.arange(len(log_g) - offset)
    return _log_sum_exp(log_weight(n) + n * log_u - log_g[offset:])


def mandel_q_closed_form(seq: GSequence, k: int, u: float) -> float:
    """Q_k(u) from the three-series closed form (finite k >= 1), cross-check path.

    At k = 1 the first series is empty and Q_1 = -g(0) u / (g(1) + g(0) u).
    """
    log_u = math.log(_label(u))
    k = _truncation_level(k, seq)
    if not 1 <= k < INFINITE:
        raise ValueError("closed form requires a finite k >= 1")
    log_g = seq.log_g_array(np.arange(k + 1))
    s2 = _log_weighted_sum(log_g, log_u, 2, lambda n: np.log((n + 1.0) * (n + 2.0)))
    s1 = _log_weighted_sum(log_g, log_u, 1, lambda n: np.log(n + 1.0))
    s0 = _log_weighted_sum(log_g, log_u, 0, lambda n: 0.0)
    return u * (math.exp(s2 - s1) - math.exp(s1 - s0))


def mandel_q2_closed_form(seq: GSequence, u: float) -> float:
    """The explicit k = 2 rational form of Q_2(u)."""
    _label(u)
    log_g = seq.log_g_array(np.arange(3))
    # past the double range of g(0..2), or of the denominator (u past about
    # 1e154 for g of order 1), the log-space form does not overflow
    if np.all((_LN_MIN < log_g) & (log_g < _LN_MAX)):
        g0, g1, g2 = (math.exp(x) for x in log_g)
        d = g1 * g2 + g0 * g2 * u + g0 * g1 * u * u
        if 0.0 < d < math.inf:
            a = 2.0 * g1 / (g2 + 2.0 * g1 * u)
            b = g0 * (g2 + 2.0 * g1 * u) / d
            return u * (a - b)
    return mandel_q_closed_form(seq, 2, u)


def q_small_label_sign(seq: GSequence, k) -> SmallLabelSign:
    """Sign of Q_k as |z| -> 0+, from the g(0..3) ratio conditions.

    The ratios r2 = g0 g2 / g1^2 and r3 = g0 g3 / (g1 g2) are read as sums of
    ln g, so that g itself may lie past the double range."""
    if _truncation_level(k, seq) < 2:
        raise ValueError("the small-label sign conditions require k >= 2")
    l0, l1, l2 = seq.log_g_array(np.arange(3))
    ln_r2 = l0 + l2 - 2.0 * l1
    if ln_r2 < math.log(2.0 - BOUNDARY_TOL):
        return SmallLabelSign.POSITIVE
    if ln_r2 > math.log(2.0 + BOUNDARY_TOL):
        return SmallLabelSign.NEGATIVE
    # boundary ratio = 2
    if k == 2:
        return SmallLabelSign.NEGATIVE
    ln_r3 = l0 + seq.log_g(3) - l1 - l2
    if ln_r3 < math.log(3.0 - BOUNDARY_TOL):
        return SmallLabelSign.POSITIVE
    if ln_r3 > math.log(3.0 + BOUNDARY_TOL):
        return SmallLabelSign.NEGATIVE
    if k == 3:
        return SmallLabelSign.NEGATIVE
    return SmallLabelSign.DEPENDS_ON_HIGHER_ORDER


def q2_zero_crossing(seq: GSequence) -> float | None:
    """zeta_0, the |z| where Q_2 changes sign; None unless Q_2 starts positive.

    zeta_0^2 = g2/(2 g1) (sqrt(4/r2 - 1) - 1), r2 = g0 g2 / g1^2 < 2, in logs."""
    if q_small_label_sign(seq, 2) is not SmallLabelSign.POSITIVE:
        return None
    l0, l1, l2 = seq.log_g_array(np.arange(3))
    ln_r2 = l0 + l2 - 2.0 * l1
    half = 0.5 * (math.log(4.0 - math.exp(ln_r2)) - ln_r2)  # ln sqrt(4/r2 - 1) > 0
    ln_inner = half + math.log(-math.expm1(-half))       # ln(e^half - 1)
    ln_zeta = 0.5 * (l2 - l1 - math.log(2.0) + ln_inner)
    if ln_zeta >= _LN_MAX:
        raise ValueError(f"zeta_0 = e^{ln_zeta:.6g} is past the double range")
    return math.exp(ln_zeta)


def q_large_label_approx(seq: GSequence, k: int, z: complex) -> float:
    """Two-term large-label form Q_k ~ -1 + g(k)/(k g(k-1)) |z|^-2."""
    k = _truncation_level(k, seq)
    if not 2 <= k < INFINITE:
        raise ValueError("large-label approximation requires a finite k >= 2")
    u = _modulus_squared(z)
    if u < 1.0:
        raise ValueError("large-label approximation requires |z| >= 1")
    ln_ratio = seq.log_g(k) - seq.log_g(k - 1)
    if ln_ratio >= _LN_MAX:
        raise ValueError(f"g(k)/g(k-1) = e^{ln_ratio:.6g} is past the double range")
    ratio = math.exp(ln_ratio) / k
    return -1.0 + ratio / u


def correlation_g2(spec: StateSpec) -> float:
    """Second-order correlation sum n(n-1)p(n) / (sum n p(n))^2."""
    mean, fact2 = _spec_moments(spec, True)
    return fact2 / (mean * mean)


def p_asymptotic(kind: MLGamma | WrightProduct | G1 | AsymptoticFamily, n: int,
                 u: float, norm: float) -> float:
    """Large-n approximation of the excitation probability p(n) of the state
    family that kind generates: its sequence, or its weight's asymptotic family.

    norm is the (truncated or not) normalization-series value dividing the
    distribution; the ratio to the exact p(n) tends to 1 as n grows.
    """
    log_u = math.log(_label(u))
    if not (10 <= n < math.inf and n == int(n)):  # NaN fails every comparison
        raise ValueError(f"asymptotic form is meant for an integer n >= 10, got {n}")
    if not 0 < norm < math.inf:
        raise ValueError(f"norm must be a normalization value, finite and > 0, got {norm}")
    two_pi = 2.0 * math.pi
    if isinstance(kind, WrightProduct):
        lam, mu = kind.lam, kind.mu
        log_p = (n * log_u + (lam + 1.0) * n + (-lam * n - mu + 0.5) * math.log(lam)
                 + (-(lam + 1.0) * n - mu) * math.log(n)
                 - math.log(two_pi) - math.log(norm))
    else:
        # one term c u^-nu exp(-w u^rho) ln^l u (ML and G1 are such terms) gives 1/g(n) ~
        # rho^(l+1) w^e e^x x^(-e + 1/2) / (sqrt(2 pi) c ln^l (x/w)), x = n/rho,
        # e = (n+1-nu)/rho; x/w = u*^rho at the saddle point u* of the Mellin integrand
        top = None  # n + 1 - nu, summed as G1 sums it: (n + 1) - (-nu) rounds otherwise
        if isinstance(kind, G1):  # u^nu e^(-w u^rho): the one term c = 1 at -nu
            top = n + kind.nu + 1.0
            kind = AsymptoticFamily((AsymptoticTerm(1.0, -kind.nu, kind.w, kind.rho),))
        lead, log_c, log_ln = 0.0, 0.0, 0.0
        if isinstance(kind, MLGamma):
            x, e = kind.alpha * n, kind.alpha * n + kind.beta
        elif isinstance(kind, AsymptoticFamily):
            t = kind.terms[kind.leading_index()]
            if t.c < 0:
                raise ValueError("a negative leading coefficient gives no p(n) > 0")
            if top is None:
                top = n + 1.0 - t.nu
            x, e, log_c = n / t.rho, top / t.rho, math.log(t.c)
            if t.l > 0:
                if x / t.w <= 1.0:
                    raise ValueError("logarithm nonpositive: need n/(rho w) > 1 when l > 0")
                log_ln = t.l * math.log(math.log(x / t.w))
            lead = (t.l + 1) * math.log(t.rho) + e * math.log(t.w)
        else:
            raise TypeError(f"unknown asymptotics kind: {kind!r}")
        log_p = (lead + n * log_u + x + (-e + 0.5) * math.log(x) - 0.5 * math.log(two_pi)
                 - log_c - math.log(norm) - log_ln)
    if not log_p < _LN_MAX:  # NaN fails too
        raise ValueError(f"p(n) = exp({log_p}) is past the double range: "
                         "norm is not the normalization at u")
    return math.exp(log_p)
