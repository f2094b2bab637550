"""Resolution-of-identity weight functions and their moment identities."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable

import numpy as np

from . import specfun
from .gseq import AuxFunction, Factorial, GSequence, MLGamma, WrightProduct
from .specfun import KratzelParams
from .states import INFINITE, _adaptive_log_terms, _check_term_budget


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


def quadrature_improper(f: Callable[[float], float], tol: float = 1e-8) -> QuadratureResult:
    """int_0^inf f(u) du by the trapezoid rule on t = ln u, f mapped over the nodes."""
    return QuadratureResult(*specfun._trapezoid(
        lambda t: np.fromiter((f(u) * u for u in np.exp(t).tolist()), float, t.size),
        tol)[:, 0].tolist())


def _window(c: float, p: float, s_left: float, s_right: float,
            n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The t window of F u^(n+1) ~ e^((s_left + n) t) (t -> -inf), ~ e^((s_right + n) t
    - c e^(t/p)) (t -> inf): from e^-60 below the decay's onset c e^(t/p) = 1, at
    most from t = -700, to where the right tail falls below e^-800."""
    s = s_right + n
    hi = np.full(np.shape(s), p * math.log(800.0 / c))
    for _ in range(8):  # to the fixed point from below, each step p s / (800 + s t) closer
        hi = p * np.log((800.0 + np.maximum(s * hi, 0.0)) / c)
    return np.maximum(-60.0 / (s_left + n) - p * math.log(c), -700.0), hi


class WeightFunction:
    """Completeness density U(u) = pi^-1 F(u) T(u) on (0, inf), T the series of
    seq truncated at k: the moment identity pi int [T]^-1 U u^n du = g(n) is the
    integral of F u^(n+1) over t = ln u.  Subclasses give seq, k, the factor
    (_log_factor, or _factor where it is signed) and its _tails (see _window).
    """

    seq: GSequence
    k: float

    def __post_init__(self):
        self.seq  # builds the sequence: bad parameters fail here, not inside a sum

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        """ln F at u = exp(t)."""
        raise NotImplementedError

    def _factor(self, t: np.ndarray, log_scale) -> np.ndarray:
        """F(e^t) e^log_scale, the scale taken into the exponent: neither need be
        representable alone."""
        return np.exp(self._log_factor(t) + log_scale)

    def _log_normalization(self, t: np.ndarray) -> np.ndarray:
        """ln T at u = exp(t).  For k = inf the level is the adaptive one at the
        largest u, whose tail bound holds at every smaller u (the terms are
        log-concave in n); DivergenceError past MAX_TERMS terms."""
        k = self.k
        if k == INFINITE:
            log_u = float(np.max(t))
            _check_term_budget(self.seq, math.exp(log_u))
            k = len(_adaptive_log_terms(self.seq, log_u)) - 1
        return specfun.log_truncated_series(self.seq, int(k), t)

    def eval(self, u):
        """U(u) for u > 0, a float or an array."""
        t = np.log(u)
        log_norm = self._log_normalization(t)
        # an exponential of t in F past the double range gives its value, F = 0
        with np.errstate(over="ignore"):
            return self._factor(t, log_norm) / math.pi

    def normalization_series(self, u):
        """The T(u) series dividing the state projector in the moment integral;
        inf past the double range."""
        with np.errstate(over="ignore"):
            return np.exp(self._log_normalization(np.log(u)))

    def moment_target(self, n: int) -> float:
        """The g(n) value the n-th cancelled moment integral must reproduce."""
        return self.seq.g(n)

    def _cancelled_moments(self, n: np.ndarray, tol: float) -> np.ndarray:
        """[values, error estimates] of int F u^(n+1) dt, one trapezoid row per n."""
        return specfun._trapezoid(lambda t, n: self._factor(t, (n + 1.0) * t),
                                  tol, *_window(*self._tails, n), n)

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        """pi * int [T]^-1 U(u) u^n du with the analytic cancellation applied."""
        return QuadratureResult(*self._cancelled_moments(np.array([n]), tol)[:, 0].tolist())

    def label(self) -> str:
        k = "inf" if self.k == INFINITE else int(self.k)
        return f"{self._kind}({''.join(f'{p}={v},' for p, v in self._params().items())}k={k})"

    def _params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "k"}


@dataclass(frozen=True)
class CanonicalTruncatedWeight(WeightFunction):
    """pi^-1 exp(-u) exp_k(-u); sign-indefinite for odd k at large u."""

    k: int
    _kind = "canonical-truncated"
    _tails = (1.0, 1.0, 1.0, 1.0)
    seq = Factorial()

    def _factor(self, t: np.ndarray, log_scale) -> np.ndarray:
        # F = e^-u exp_k(-u) / exp_k(u) is signed and cancels: its terms u^n/n!,
        # over the largest at n = min(k, u), are products of ratios u/j past it
        # and j/u up to it, which round like the plain sums and never overflow
        u = np.exp(t)[..., None]
        j = np.arange(1, self.k + 1)
        top = np.minimum(self.k, np.floor(u))
        one = np.ones(u.shape)
        up = np.concatenate([one, np.cumprod(np.where(j > top, u / j, 1.0), axis=-1)], axis=-1)
        down = np.where(j <= top, j / u, 1.0)[..., ::-1]
        w = up * np.concatenate([np.cumprod(down, axis=-1)[..., ::-1], one], axis=-1)
        ratio = w @ (-1.0) ** np.arange(self.k + 1) / np.sum(w, axis=-1)
        return ratio * np.exp(log_scale - u[..., 0])


@dataclass(frozen=True)
class MLWeight(WeightFunction):
    """u^(beta/alpha - 1) exp(-u^(1/alpha)) T(u) / (pi alpha), T = E or its partial sum."""

    alpha: float
    beta: float
    k: float = INFINITE
    _kind = "ml"

    @property
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

    @property
    def seq(self) -> WrightProduct:
        return WrightProduct(self.lam, self.mu)

    @property
    def _tails(self) -> tuple[float, float, float, float]:
        # Z ~ u^min(0, mu/lam - 1) as u -> 0 (a log factor at mu = lam), and
        # ln Z ~ -(1 + 1/lam) (lam u)^(1/(1+lam)) + (mu - lam - 1/2)/(1 + lam) ln u
        lam, mu = self.lam, self.mu
        return ((1.0 + 1.0 / lam) * lam ** (1.0 / (1.0 + lam)), 1.0 + lam,
                min(1.0, mu / lam), 1.0 + max(mu - lam, 0.0) / (1.0 + lam))

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        return specfun._kratzel(KratzelParams(self.lam, self.mu), t, _KRATZEL_TOL)


@dataclass(frozen=True)
class GeneralWeight(WeightFunction):
    """N_{k,g}(u) f(u) / pi for a sequence matched to f via g(n) = f^(n+1)."""

    f: AuxFunction
    seq: GSequence
    k: float = INFINITE
    _kind = "general"

    @property
    def _tails(self) -> tuple[float, float, float, float]:
        return self.f.w, 1.0 / self.f.rho, self.f.nu + 1.0, self.f.nu + 1.0

    def _log_factor(self, t: np.ndarray) -> np.ndarray:
        return self.f.nu * t - self.f.w * np.exp(self.f.rho * t)

    def _params(self) -> dict:
        return vars(self.f)


# tolerance of the Kraetzel kernel in the Wright factor: the halving meeting it leaves
# errors far below it (Wright moments within 2e-15 of g(n); 1e-9 gave 8e-14)
_KRATZEL_TOL = 5e-10


def weight_eval(w: WeightFunction, u: float) -> float:
    if u <= 0:
        raise ValueError("weight functions are defined on u > 0")
    return float(w.eval(u))


def _radial_moments(w: WeightFunction, n: np.ndarray, tol: float) -> np.ndarray:
    """pi * int_0^inf [T(u)]^-1 U(u) u^n du for each n, one trapezoid row per n."""

    def f(t: np.ndarray, n: np.ndarray) -> np.ndarray:
        u = np.exp(t)
        return w.eval(u) / w.normalization_series(u) * u ** (n + 1.0)

    return math.pi * specfun._trapezoid(f, tol, *_window(*w._tails, n), n)[0]


def weight_radial_moment(w: WeightFunction, n: int, tol: float = 1e-8) -> float:
    """pi * int_0^inf [T(u)]^-1 U(u) u^n du, evaluated without cancellation."""
    return float(_radial_moments(w, np.array([n]), tol)[0])


@dataclass(frozen=True)
class MomentRow:
    kind: str
    n: int
    target: float
    value: float
    residual: float


@dataclass(frozen=True)
class MomentReport:
    rows: tuple[MomentRow, ...]
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(r.residual for r in self.rows)

    def to_csv_rows(self) -> Iterable[dict]:
        for r in self.rows:
            yield {"kind": r.kind, "n": r.n, "target": r.target,
                   "value": r.value, "residual": r.residual}


def moment_check(w: WeightFunction, n_max: int, tol: float) -> MomentReport:
    """Residuals of pi int [T]^-1 U u^n du against g(n) for n = 0..n_max."""
    if w.k != INFINITE and n_max > int(w.k):
        raise ValueError("n_max must not exceed the truncation level")
    values = w._cancelled_moments(np.arange(n_max + 1), tol)[0].tolist()
    rows = []
    for n, value in enumerate(values):
        target = w.moment_target(n)
        rows.append(MomentRow(kind=w.label(), n=n, target=target, value=value,
                              residual=abs(value - target) / target))
    rows = tuple(rows)
    return MomentReport(rows=rows, tol=tol,
                        passed=all(r.residual <= tol for r in rows))
