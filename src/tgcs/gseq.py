"""Generating sequences g(n), auxiliary Mellin functions and asymptotic families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .specfun import _trapezoid


class GSequence:
    """Positive arithmetic function g(n) generating a coherent-state family.

    Subclasses implement log_g_array; g itself is exp(log_g) so that values
    stay representable well past the overflow point of the direct product forms.
    """

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        """ln g(n) for a 1-D array of indices n >= 0."""
        raise NotImplementedError

    def log_g(self, n: int) -> float:
        return float(self.log_g_array(np.array([n]))[0])

    def g(self, n: int) -> float:
        return math.exp(self.log_g(n))

    def __call__(self, n: int) -> float:
        return self.g(n)

    def to_json(self) -> dict[str, Any]:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "GSequence":
        variant = obj.get("variant")
        if variant == "factorial":
            return Factorial()
        if variant == "ml_gamma":
            return MLGamma(obj["alpha"], obj["beta"])
        if variant == "wright_product":
            return WrightProduct(obj["lam"], obj["mu"])
        if variant == "g1":
            return G1(obj["nu"], obj["rho"], obj["w"])
        if variant == "table":
            return Table(tuple(obj["values"]))
        raise ValueError(f"unknown GSequence variant: {variant!r}")


def _check_n(n: np.ndarray) -> None:
    # a negative index would otherwise wrap silently in Table lookups
    if n.size and n.min() < 0:
        raise ValueError(f"sequence index must be >= 0, got {n.min()}")


def _map(f, x: np.ndarray) -> np.ndarray:
    """f applied element by element: math.lgamma and math.log, not their numpy
    counterparts, so that array values equal the scalar closed forms bit for bit."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


@dataclass(frozen=True)
class Factorial(GSequence):
    """g(n) = n!  (the canonical coherent-state sequence)."""

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        _check_n(n)
        return _map(math.lgamma, n + 1)

    def to_json(self) -> dict[str, Any]:
        return {"variant": "factorial"}


@dataclass(frozen=True)
class MLGamma(GSequence):
    """g(n) = Gamma(alpha*n + beta), the Mittag-Leffler family."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("MLGamma requires alpha > 0 and beta > 0")

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        _check_n(n)
        return _map(math.lgamma, self.alpha * n + self.beta)

    def to_json(self) -> dict[str, Any]:
        return {"variant": "ml_gamma", "alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class WrightProduct(GSequence):
    """g(n) = n! * Gamma(lam*n + mu), the Wright family."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("WrightProduct requires lam > 0 and mu > 0")

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        _check_n(n)
        return _map(math.lgamma, n + 1) + _map(math.lgamma, self.lam * n + self.mu)

    def to_json(self) -> dict[str, Any]:
        return {"variant": "wright_product", "lam": self.lam, "mu": self.mu}


@dataclass(frozen=True)
class G1(GSequence):
    """g(n) = rho^-1 w^(-(n+nu+1)/rho) Gamma((n+nu+1)/rho).

    The Mellin transform of u^nu exp(-w u^rho) evaluated at s = n+1.
    """

    nu: float
    rho: float
    w: float

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("G1 requires nu >= 0")
        if self.rho <= 0 or self.w <= 0:
            raise ValueError("G1 requires rho > 0 and w > 0")

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        _check_n(n)
        s = (n + self.nu + 1.0) / self.rho
        return -math.log(self.rho) - s * math.log(self.w) + _map(math.lgamma, s)

    def to_json(self) -> dict[str, Any]:
        return {"variant": "g1", "nu": self.nu, "rho": self.rho, "w": self.w}


@dataclass(frozen=True)
class Table(GSequence):
    """Finite tabulated sequence, for experimenting with the sign conditions."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("Table requires at least one value")
        if any(v <= 0 for v in self.values):
            raise ValueError("Table values must all be positive")

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        _check_n(n)
        if n.size and n.max() >= len(self.values):
            raise IndexError(
                f"Table index {n.max()} out of range (length {len(self.values)})")
        return _map(math.log, np.asarray(self.values)[n])

    def to_json(self) -> dict[str, Any]:
        return {"variant": "table", "values": list(self.values)}


@dataclass(frozen=True)
class AuxFunction:
    """Single-term auxiliary density f(u) = u^nu * exp(-w * u^rho)."""

    nu: float = 0.0
    rho: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.w <= 0:
            raise ValueError("AuxFunction requires rho > 0 and w > 0")
        if self.nu <= -1:
            raise ValueError("AuxFunction requires nu > -1 for Mellin moments at s >= 1")

    def __call__(self, u: float) -> float:
        if u <= 0:
            raise ValueError("AuxFunction is defined on u > 0")
        if self.rho * math.log(u) > 700.0:
            return 0.0
        arg = self.nu * math.log(u) - self.w * u ** self.rho
        return math.exp(arg) if arg > -700.0 else 0.0

    def on_log_axis(self, t: np.ndarray, s: float) -> np.ndarray:
        """f(u) u^s at u = exp(t): the Mellin integrand on t = ln u, Jacobian included."""
        return np.exp((s + self.nu) * t - self.w * np.exp(np.minimum(self.rho * t, 700.0)))

    def mellin_closed_form(self, s: float) -> float:
        """rho^-1 w^(-(s+nu)/rho) Gamma((s+nu)/rho), the exact transform."""
        t = (s + self.nu) / self.rho
        return math.exp(-math.log(self.rho) - t * math.log(self.w) + math.lgamma(t))

    def matching_sequence(self) -> G1:
        """The g(n) = f^(n+1) sequence generated by this density."""
        return G1(nu=self.nu, rho=self.rho, w=self.w)


def mellin_transform(f: AuxFunction, s: float, rel_tol: float = 1e-8) -> float:
    """int_0^inf f(u) u^(s-1) du by the trapezoid rule on the log axis."""
    if s < 1:
        raise ValueError("mellin_transform requires s >= 1")
    return float(_trapezoid(f.on_log_axis, rel_tol, -700.0, 700.0, s)[0, 0])


@dataclass(frozen=True)
class MellinLinkReport:
    residuals: tuple[float, ...]
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_mellin_link(f: AuxFunction, seq: GSequence, n_max: int,
                       tol: float) -> MellinLinkReport:
    """Relative residuals |f^(n+1) - g(n)| / g(n) for n = 0..n_max.

    One trapezoid row per n, each at mellin_transform's default tolerance.
    """
    fhat = _trapezoid(f.on_log_axis, 1e-8, -700.0, 700.0, np.arange(n_max + 1) + 1.0)[0]
    g = [seq.g(n) for n in range(n_max + 1)]
    residuals = tuple(abs(v - gn) / gn for v, gn in zip(fhat.tolist(), g))
    return MellinLinkReport(residuals, tol, max(residuals) <= tol)


@dataclass(frozen=True)
class AsymptoticTerm:
    c: float
    nu: float
    w: float
    rho: float
    l: int = 0

    def __post_init__(self):
        if self.w <= 0 or self.rho <= 0:
            raise ValueError("AsymptoticTerm requires w > 0 and rho > 0")
        if self.l < 0:
            raise ValueError("AsymptoticTerm requires l >= 0")


@dataclass(frozen=True)
class AsymptoticFamily:
    """Ordered asymptotic scale c_j u^(-nu_j) exp(-w_j u^rho_j) ln^l_j u."""

    terms: tuple[AsymptoticTerm, ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("AsymptoticFamily requires at least one term")
        for a, b in zip(self.terms, self.terms[1:]):
            if b.rho < a.rho:
                raise ValueError("rho_j must be nondecreasing")
            if b.rho == a.rho:
                if b.w < a.w:
                    raise ValueError("w_j must be nondecreasing when rho ties")
                if b.w == a.w:
                    if b.nu < a.nu:
                        raise ValueError("nu_j must be nondecreasing when (rho, w) tie")
                    if b.nu == a.nu and b.l >= a.l:
                        raise ValueError("l_j must decrease when (rho, w, nu) tie")

    def leading_index(self) -> int:
        for j, t in enumerate(self.terms):
            if t.c != 0:
                return j
        raise ValueError("all coefficients vanish; no leading term")


def asymptotic_leading_term(fam: AsymptoticFamily, n: int) -> float:
    """The n-dependence of the large-n probability decay, leading term only.

    rho^(l+1) w^((n+1-nu)/rho) e^(n/rho) (n/rho)^(-(n+1-nu)/rho + 1/2)
        / (sqrt(2 pi) c ln^l(n/rho))
    for the first nonvanishing-coefficient term of the family.
    """
    if n < 2:
        raise ValueError("asymptotic form requires n >= 2")
    t = fam.terms[fam.leading_index()]
    x = n / t.rho
    if t.l > 0 and x <= 1.0:
        raise ValueError("logarithm nonpositive: need n/rho > 1 when l > 0")
    e = (n + 1.0 - t.nu) / t.rho
    log_val = ((t.l + 1) * math.log(t.rho) + e * math.log(t.w) + x
               + (-e + 0.5) * math.log(x) - 0.5 * math.log(2.0 * math.pi)
               - math.log(abs(t.c)))
    if t.l > 0:
        log_val -= t.l * math.log(math.log(x))
    return math.copysign(math.exp(log_val), t.c)
