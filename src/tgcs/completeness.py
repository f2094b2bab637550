"""Resolution-of-identity weight functions and their moment identities."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import specfun
from .gseq import (AuxFunction, Factorial, GSequence, MLGamma, MomentReport, WrightProduct,
                   _moment_report, _order)
from .states import INFINITE, _span, _truncation_level


class WeightFunction:
    """Completeness density U(u) = pi^-1 F(u) T(u) on (0, inf), T the series of
    seq truncated at k: the moment identity pi int [T]^-1 U u^n du = g(n) is the
    integral of F u^(n+1) over t = ln u, in which T cancels, so that
    _cancelled_moments is the one moment route (moment_check, weight_radial_moment,
    states.bargmann_inner_product) and only eval sums T.  Subclasses give seq, k,
    ln F (_log_factor) and the tails of F (_tails, see specfun._window).
    """

    seq: GSequence
    k: float  # nonnegative int, or INFINITE

    def __post_init__(self):
        # builds the sequence: bad parameters fail here, not inside a sum
        object.__setattr__(self, "k", _truncation_level(self.k, self.seq))

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        """ln F at u = exp(t); ln|F| + i pi where F < 0, as specfun._trapezoid takes it."""
        raise NotImplementedError

    def eval(self, u):
        """U(u) for u > 0, a float or an array; ValueError if any u is not finite and > 0,
        DivergenceError where a k = inf series would need more than MAX_TERMS terms."""
        if not np.all(np.greater(u, 0.0) & np.isfinite(u)):  # NaN too
            raise ValueError("weight functions are defined on finite u > 0")
        t = np.log(u)
        # ln T = m + ln sum w, a specfun._shifted_rows row per u to the level at the largest
        log_g = self.seq.log_g_array(np.arange(_span(self.seq, self.k, float(np.max(t)))[1] + 1))
        log_norm = np.concatenate([(m + np.log(total))[:, 0] for m, _, total in
                                   specfun._shifted_rows(log_g, 0, np.ravel(t))])
        # an exponential of t in F past the double range gives F = 0, ln F = -inf
        with np.errstate(over="ignore", divide="ignore"):
            return np.exp(self._log_factor(t) + log_norm.reshape(np.shape(t))).real / math.pi

    def moment_target(self, n: int) -> float:
        """The g(n) value the n-th cancelled moment integral must reproduce."""
        return self.seq.g(n)

    def _cancelled_moments(self, n: np.ndarray, tol: float) -> np.ndarray:
        """The values of int F u^(n+1) dt, one trapezoid row per n."""
        return specfun._trapezoid(lambda t, n: self._log_factor(t) + (n + 1.0) * t,
                                  tol, *specfun._window(*self._tails, n), n)

    def label(self) -> str:
        params = "".join(f"{p}={v}," for p, v in vars(self.seq).items())
        return f"{self._kind}({params}k={self.k})"


@dataclass(frozen=True)
class CanonicalTruncatedWeight(WeightFunction):
    """pi^-1 exp(-u) exp_k(-u); sign-indefinite for odd k at large u."""

    k: int
    _kind = "canonical-truncated"
    _tails = (1.0, 1.0, 1.0, 1.0)
    seq = Factorial()

    def __post_init__(self):
        super().__post_init__()
        if self.k == INFINITE:
            raise ValueError("the canonical truncated weight requires a finite k")

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        # F = e^-u exp_k(-u) / exp_k(u) is signed and cancels: its terms u^n/n!,
        # over the largest at n = min(k, u), are products of ratios u/j past it
        # and j/u up to it, which round like the plain sums and never overflow; in
        # blocks of at most specfun._BLOCK (node, j) entries, as _shifted_rows builds rows
        u = np.exp(np.ravel(t))
        j, sign = np.arange(1, self.k + 1), (-1.0) ** np.arange(self.k + 1)
        ratio = np.empty(u.size)
        step = max(1, specfun._BLOCK // (self.k + 1))
        for i in range(0, u.size, step):
            b = u[i:i + step, None]
            top = np.minimum(self.k, np.floor(b))
            one = np.ones(b.shape)
            up = np.concatenate([one, np.cumprod(np.where(j > top, b / j, 1.0), axis=1)], axis=1)
            down = np.where(j <= top, j / b, 1.0)[:, ::-1]
            w = up * np.concatenate([np.cumprod(down, axis=1)[:, ::-1], one], axis=1)
            ratio[i:i + step] = w @ sign / np.sum(w, axis=1)
        return (np.log(ratio + 0j) - u).reshape(np.shape(t))


_ML_RATIO_MAX = sys.float_info.max / 745.0  # the largest beta/alpha of an MLWeight


@dataclass(frozen=True)
class MLWeight(WeightFunction):
    """u^(beta/alpha - 1) exp(-u^(1/alpha)) T(u) / (pi alpha), T = E or its partial sum."""

    alpha: float
    beta: float
    k: float = INFINITE
    _kind = "ml"

    def __post_init__(self):
        super().__post_init__()
        # the term (beta/alpha - 1) t of ln F is finite at every double u = e^t, |t| < 745;
        # past it ln F is NaN, inf * 0 at u = 1 and inf - e^(t/alpha) beyond
        if not self.beta / self.alpha <= _ML_RATIO_MAX:
            raise ValueError(f"MLWeight requires beta/alpha <= {_ML_RATIO_MAX:.3g}, got "
                             f"{self.beta!r}/{self.alpha!r}")

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def seq(self) -> MLGamma:
        return MLGamma(self.alpha, self.beta)

    @property
    def _tails(self) -> tuple[float, float, float, float]:
        return 1.0, self.alpha, self.beta / self.alpha, self.beta / self.alpha

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        a, b = self.alpha, self.beta
        return (b / a - 1.0) * t - np.exp(t / a) - math.log(a)


@dataclass(frozen=True)
class WrightWeight(WeightFunction):
    """pi^-1 T(u) Z(u), Z the Kraetzel kernel factor, T = W or its partial sum."""

    lam: float
    mu: float
    k: float = INFINITE
    _kind = "wright"

    @cached_property  # kept in the instance __dict__, outside eq, hash and repr
    def seq(self) -> WrightProduct:
        return WrightProduct(self.lam, self.mu)

    @property
    def _tails(self) -> tuple[float, float, float, float]:
        # Z ~ u^min(0, mu/lam - 1) as u -> 0 (a log factor at mu = lam), and
        # ln Z ~ -(1 + 1/lam) (lam u)^(1/(1+lam)) + (mu - lam - 1/2)/(1 + lam) ln u; its
        # coefficient written without 1/lam, which overflows below lam = 5.6e-309
        lam, mu = self.lam, self.mu
        return ((1.0 + lam) * lam ** (-lam / (1.0 + lam)), 1.0 + lam,
                min(1.0, mu / lam), 1.0 + max(mu - lam, 0.0) / (1.0 + lam))

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        return specfun._kratzel(self.lam, self.mu, t)

    def _cancelled_moments(self, n: np.ndarray, tol: float) -> np.ndarray:
        """The values of int F u^(n+1) dt, one trapezoid row per n, as WeightFunction's,
        with ln Z from its interpolant: once per Chebyshev point of the window of rows
        0..max n (both ends move right with n), not per outer node, so a row's value
        does not depend on the others asked.  Two panels, split at the decay onset
        -p ln c of _tails, which every window holds: ln Z is nearly a power law left of
        it and falls doubly exponentially right of it."""
        c, p, *_ = self._tails
        window = specfun._window(*self._tails, n)
        lo, hi = specfun._window(*self._tails, 0)[0], window[1].max()
        log_z = specfun._chebyshev(self._log_factor, lo, -p * math.log(c), hi)
        return specfun._trapezoid(lambda t, n: log_z(t) + (n + 1.0) * t, tol, *window, n)


@dataclass(frozen=True)
class GeneralWeight(WeightFunction):
    """N_{k,g}(u) f(u) / pi for a sequence matched to f via g(n) = f^(n+1)."""

    f: AuxFunction
    seq: GSequence
    k: float = INFINITE
    _kind = "general"

    _tails = property(lambda self: self.f._tails)

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        return self.f.on_log_axis(t, 0.0)


def weight_radial_moment(w: WeightFunction, n: int) -> float:
    """pi * int_0^inf [T(u)]^-1 U(u) u^n du = int F u^(n+1) dt at QUAD_TOL, the row n
    of moment_check(w, n, QUAD_TOL) bit for bit; ValueError as _order gives it."""
    return float(w._cancelled_moments(np.array([_order(n, w.k)]), specfun.QUAD_TOL)[0])


def moment_check(w: WeightFunction, n_max: int, tol: float) -> MomentReport:
    """Residuals of pi int [T]^-1 U u^n du against g(n) for n = 0..n_max; ValueError
    as _order gives it."""
    values = w._cancelled_moments(np.arange(_order(n_max, w.k, tol) + 1), tol)
    return _moment_report(w.label(), values, w.moment_target, tol)
