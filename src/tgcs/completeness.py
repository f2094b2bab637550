"""Resolution-of-identity weight functions and their moment identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .gseq import AuxFunction, GSequence
from .specfun import KratzelParams, kratzel_kernel, mittag_leffler, wright
from .states import INFINITE
from . import specfun


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float


def _integrate(g, tol: float, lo: float = -700.0, hi: float = 700.0) -> QuadratureResult:
    """int g(t) dt over [lo, hi] of one integrand on the log axis t = ln u."""
    return QuadratureResult(*specfun._trapezoid(g, tol, lo, hi)[:, 0].tolist())


def quadrature_improper(f: Callable[[float], float], tol: float = 1e-8) -> QuadratureResult:
    """int_0^inf f(u) du by the trapezoid rule on t = ln u, f mapped over the nodes."""
    return _integrate(
        lambda t: np.fromiter((f(u) * u for u in np.exp(t).tolist()), float, t.size), tol)


class WeightFunction:
    """Evaluable completeness density U(u) on (0, inf)."""

    def eval(self, u: float) -> float:
        raise NotImplementedError

    def normalization_series(self, u: float) -> float:
        """The T(u) series dividing the state projector in the moment integral."""
        raise NotImplementedError

    def moment_target(self, n: int) -> float:
        """The g(n) value the n-th cancelled moment integral must reproduce."""
        raise NotImplementedError

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        """pi * int [T]^-1 U(u) u^n du with the analytic cancellation applied."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CanonicalTruncatedWeight(WeightFunction):
    """pi^-1 exp(-u) exp_k(-u); sign-indefinite for odd k at large u."""

    k: int

    def eval(self, u: float) -> float:
        if u > 700.0:
            return 0.0
        return math.exp(-u) * _exp_partial(self.k, -u) / math.pi

    def normalization_series(self, u: float) -> float:
        return _exp_partial(self.k, u)

    def moment_target(self, n: int) -> float:
        return math.gamma(n + 1)

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        # no analytic cancellation exists here; integrate the raw quotient
        def f(t: np.ndarray) -> np.ndarray:
            # held at u = 700 beyond it, where e^-u makes the integrand negligible
            # and the partial sums would overflow
            u = np.exp(np.minimum(t, math.log(700.0)))
            return np.exp(-u) * _exp_partial(self.k, -u) / _exp_partial(self.k, u) * u ** (n + 1)

        return _integrate(f, tol)

    def label(self) -> str:
        return f"canonical-truncated(k={self.k})"


@dataclass(frozen=True)
class MLWeight(WeightFunction):
    """u^(beta/alpha - 1) exp(-u^(1/alpha)) T(u) / (pi alpha), T = E or its partial sum."""

    alpha: float
    beta: float
    k: float = INFINITE

    def eval(self, u: float) -> float:
        a, b = self.alpha, self.beta
        if math.log(u) / a > 700.0:
            return 0.0
        log_front = (b / a - 1.0) * math.log(u) - u ** (1.0 / a)
        if log_front <= -700.0:
            return 0.0  # skip T, whose series overflows at huge u
        return math.exp(log_front) * self.normalization_series(u) / (math.pi * a)

    def normalization_series(self, u: float) -> float:
        if self.k == INFINITE:
            return mittag_leffler(self.alpha, self.beta, u)
        from .gseq import MLGamma
        return float(specfun.truncated_series(MLGamma(self.alpha, self.beta),
                                              int(self.k), u).real)

    def moment_target(self, n: int) -> float:
        return math.gamma(self.alpha * n + self.beta)

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        a, b = self.alpha, self.beta
        return _integrate(
            lambda t: np.exp((b / a + n) * t - np.exp(np.minimum(t / a, 700.0))) / a, tol)

    def label(self) -> str:
        k = "inf" if self.k == INFINITE else int(self.k)
        return f"ml(alpha={self.alpha},beta={self.beta},k={k})"


@dataclass(frozen=True)
class WrightWeight(WeightFunction):
    """pi^-1 T(u) Z(u), Z the Kraetzel kernel factor, T = W or its partial sum."""

    lam: float
    mu: float
    k: float = INFINITE

    def eval(self, u: float) -> float:
        z = kratzel_kernel(KratzelParams(self.lam, self.mu), u)
        if z == 0.0:
            return 0.0  # skip T, whose series overflows at huge u
        return self.normalization_series(u) * z / math.pi

    def normalization_series(self, u: float) -> float:
        if self.k == INFINITE:
            return wright(self.lam, self.mu, u)
        from .gseq import WrightProduct
        return float(specfun.truncated_series(WrightProduct(self.lam, self.mu),
                                              int(self.k), u).real)

    def moment_target(self, n: int) -> float:
        return math.exp(math.lgamma(n + 1) + math.lgamma(self.lam * n + self.mu))

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        params = KratzelParams(self.lam, self.mu)
        inner_tol = min(1e-9, tol * 1e-2)
        # u^(n+1) Z(u) falls like exp((n + min(1, mu/lam)) t) on the left (cut
        # at -700, where Z itself may pass the double range) and is 0 past
        # ln u = lam ln 700 + 9, where the kernel's window closes
        return _integrate(
            lambda t: np.exp((n + 1) * t) * specfun._kratzel(params, t, inner_tol), tol,
            max(-60.0 / (n + min(1.0, self.mu / self.lam)), -700.0),
            self.lam * math.log(700.0) + 9.0)

    def label(self) -> str:
        k = "inf" if self.k == INFINITE else int(self.k)
        return f"wright(lam={self.lam},mu={self.mu},k={k})"


@dataclass(frozen=True)
class GeneralWeight(WeightFunction):
    """N_{k,g}(u) f(u) / pi for a sequence matched to f via g(n) = f^(n+1)."""

    f: AuxFunction
    seq: GSequence
    k: float = INFINITE

    def eval(self, u: float) -> float:
        # N(u) and f(u) overflow/underflow in opposite directions; pair them in log space
        if self.f.rho * math.log(u) > 700.0:
            return 0.0
        log_f = self.f.nu * math.log(u) - self.f.w * u ** self.f.rho
        arg = self._log_normalization(u) + log_f - math.log(math.pi)
        return math.exp(arg) if arg > -700.0 else 0.0

    def _log_normalization(self, u: float) -> float:
        from .states import StateSpec, log_normalization
        if self.k == INFINITE:
            return log_normalization(StateSpec(self.seq, INFINITE, math.sqrt(u)))
        return specfun.log_truncated_series(self.seq, int(self.k), math.log(u))

    def normalization_series(self, u: float) -> float:
        return math.exp(self._log_normalization(u))

    def moment_target(self, n: int) -> float:
        return self.seq.g(n)

    def cancelled_moment(self, n: int, tol: float) -> QuadratureResult:
        return _integrate(lambda t: self.f.on_log_axis(t, n + 1), tol)

    def label(self) -> str:
        k = "inf" if self.k == INFINITE else int(self.k)
        return f"general(nu={self.f.nu},rho={self.f.rho},w={self.f.w},k={k})"


def _exp_partial(k: int, x):
    """Partial exponential sum_{n=0}^{k} x^n / n! (real x or an array, either sign)."""
    total = 1.0
    term = 1.0
    for n in range(1, k + 1):
        term *= x / n
        total += term
    return total


def weight_eval(w: WeightFunction, u: float) -> float:
    if u <= 0:
        raise ValueError("weight functions are defined on u > 0")
    return w.eval(u)


def weight_radial_moment(w: WeightFunction, n: int, tol: float = 1e-8) -> float:
    """pi * int_0^inf [T(u)]^-1 U(u) u^n du, evaluated without cancellation."""

    def f(u: float) -> float:
        e = w.eval(u)
        if e == 0.0:
            return 0.0  # the T series in the denominator overflows at huge u
        return e / w.normalization_series(u) * u ** n

    return math.pi * quadrature_improper(f, tol).value


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
    rows = []
    for n in range(n_max + 1):
        target = w.moment_target(n)
        value = w.cancelled_moment(n, tol).value * 1.0
        residual = abs(value - target) / target
        rows.append(MomentRow(kind=w.label(), n=n, target=target,
                              value=value, residual=residual))
    rows = tuple(rows)
    return MomentReport(rows=rows, tol=tol,
                        passed=all(r.residual <= tol for r in rows))
