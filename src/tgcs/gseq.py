"""Generating sequences g(n), auxiliary Mellin functions and asymptotic families."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from .specfun import QUAD_TOL, _trapezoid, _window

# one term budget: ln g is checked up to it, and the k = inf sums stop there
MAX_TERMS = 1 << 21


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no count
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _order(n, top: float, tol: float = QUAD_TOL) -> int:
    """n as an int, the moment routes' one check of their order and tolerance: ValueError
    unless n is an integer in [0, top] below MAX_TERMS (a bool is not) and tol > 0 finite."""
    top = min(top, MAX_TERMS - 1)
    if not (_is_int(n) and 0 <= n <= top):
        raise ValueError(f"the moment order must be an integer in [0, {top}], got {n!r}")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    return int(n)


class GSequence:
    """Positive arithmetic function g(n) generating a coherent-state family.

    Subclasses are frozen dataclasses whose fields are the parameters (and JSON keys)
    and implement _log_g, on an index array (and on a scalar n where they call
    _check_log_g); ln g stays representable far past where g overflows.
    """

    variant: ClassVar[str]

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_g_array(self, n: np.ndarray) -> np.ndarray:
        """ln g(n) for a 1-D array of indices n >= 0."""
        # a negative index would otherwise wrap silently in Table lookups
        if n.size and n.min() < 0:
            raise ValueError(f"sequence index must be >= 0, got {n.min()}")
        return self._log_g(n)

    def _check_log_g(self) -> None:
        """ValueError unless ln g(n) is a finite number for every n < MAX_TERMS;
        ln g is convex in n, so its scalar forms at n = 0 and MAX_TERMS - 1 decide it."""
        try:
            finite = all(math.isfinite(self._log_g(n)) for n in (0, MAX_TERMS - 1))
        except OverflowError:  # math.lgamma past about 2.56e305
            finite = False
        if not finite:
            raise ValueError(f"{self!r} has no finite ln g(n) for some n < {MAX_TERMS}")

    def log_g(self, n: int) -> float:
        return float(self.log_g_array(np.array([n]))[0])

    def g(self, n: int) -> float:
        return math.exp(self.log_g(n))

    def to_json(self) -> dict[str, Any]:
        return {"variant": self.variant, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "GSequence":
        # AttributeError: obj is no dict; KeyError: a parameter is missing
        variant = obj.get("variant")
        cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
        if cls is None:
            raise ValueError(f"unknown GSequence variant: {variant!r}")
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


def _map(f, x):
    """f applied element by element: math.lgamma and math.log, not their numpy
    counterparts, so that array values equal the scalar closed forms bit for bit;
    a scalar x gives that scalar form."""
    if not isinstance(x, np.ndarray):
        return f(x)
    return np.fromiter(map(f, x.tolist()), float, len(x))


@dataclass(frozen=True)
class Factorial(GSequence):
    """g(n) = n!  (the canonical coherent-state sequence)."""

    variant = "factorial"

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        return _map(math.lgamma, n + 1)


@dataclass(frozen=True)
class MLGamma(GSequence):
    """g(n) = Gamma(alpha*n + beta), the Mittag-Leffler family."""

    alpha: float
    beta: float
    variant = "ml_gamma"

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError("MLGamma requires alpha > 0 and beta > 0")
        self._check_log_g()

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        return _map(math.lgamma, self.alpha * n + self.beta)


@dataclass(frozen=True)
class WrightProduct(GSequence):
    """g(n) = n! * Gamma(lam*n + mu), the Wright family."""

    lam: float
    mu: float
    variant = "wright_product"

    def __post_init__(self):
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf):
            raise ValueError("WrightProduct requires lam > 0 and mu > 0")
        self._check_log_g()

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        return _map(math.lgamma, n + 1) + _map(math.lgamma, self.lam * n + self.mu)


@dataclass(frozen=True)
class G1(GSequence):
    """g(n) = rho^-1 w^(-(n+nu+1)/rho) Gamma((n+nu+1)/rho).

    The Mellin transform of u^nu exp(-w u^rho) evaluated at s = n+1.
    """

    nu: float
    rho: float
    w: float
    variant = "g1"

    def __post_init__(self):
        if not 0 <= self.nu < math.inf:
            raise ValueError("G1 requires nu >= 0")
        if not (0 < self.rho < math.inf and 0 < self.w < math.inf):
            raise ValueError("G1 requires rho > 0 and w > 0")
        self._check_log_g()

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        s = (n + self.nu + 1.0) / self.rho
        return -math.log(self.rho) - s * math.log(self.w) + _map(math.lgamma, s)


@dataclass(frozen=True)
class Table(GSequence):
    """Finite tabulated sequence, for experimenting with the sign conditions."""

    values: tuple[float, ...]
    variant = "table"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise ValueError("Table requires at least one value")
        if not all(0 < v < math.inf for v in self.values):
            raise ValueError("Table values must all be positive")

    def _log_g(self, n: np.ndarray) -> np.ndarray:
        if n.size and n.max() >= len(self.values):
            raise IndexError(
                f"Table index {n.max()} out of range (length {len(self.values)})")
        return _map(math.log, np.asarray(self.values)[n])


# the JSON name of each sequence class
_VARIANTS: dict[str, type[GSequence]] = {
    cls.variant: cls for cls in (Factorial, MLGamma, WrightProduct, G1, Table)}


@dataclass(frozen=True)
class AuxFunction:
    """Single-term auxiliary density f(u) = u^nu * exp(-w * u^rho)."""

    nu: float = 0.0
    rho: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if not (0 < self.rho < math.inf and 0 < self.w < math.inf):
            raise ValueError("AuxFunction requires rho > 0 and w > 0")
        if not -1 < self.nu < math.inf:
            raise ValueError("AuxFunction requires nu > -1 for Mellin moments at s >= 1")

    @property
    def _tails(self) -> tuple[float, float, float, float]:
        return self.w, 1.0 / self.rho, self.nu + 1.0, self.nu + 1.0

    def on_log_axis(self, t: np.ndarray, s: float) -> np.ndarray:
        """ln of f(u) u^s at u = exp(t), the Mellin integrand on t = ln u, Jacobian included."""
        return (s + self.nu) * t - self.w * np.exp(self.rho * t)

    def matching_sequence(self) -> G1:
        """The g(n) = f^(n+1) sequence generated by this density."""
        return G1(nu=self.nu, rho=self.rho, w=self.w)


def mellin_transform(f: AuxFunction, s: float) -> float:
    """int_0^inf f(u) u^(s-1) du by the trapezoid rule on the log axis."""
    if not 1 <= s < math.inf:  # NaN too
        raise ValueError("mellin_transform requires a finite s >= 1")
    return float(_trapezoid(f.on_log_axis, QUAD_TOL, *_window(*f._tails, s - 1.0), s)[0, 0])


@dataclass(frozen=True)
class MomentRow:
    kind: str
    n: int
    target: float
    value: float
    residual: float


@dataclass(frozen=True)
class MomentReport:
    """A moment identity value(n) = target(n) checked for n = 0..n_max."""

    rows: tuple[MomentRow, ...]
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max(r.residual for r in self.rows)


def _moment_report(kind: str, values: np.ndarray, target, tol: float) -> MomentReport:
    """The rows of relative residuals |value - target(n)| / target(n), n = 0, 1, ..."""
    rows = tuple(MomentRow(kind=kind, n=n, target=t, value=v, residual=abs(v - t) / t)
                 for n, (v, t) in enumerate(zip(values.tolist(), map(target, range(len(values))))))
    return MomentReport(rows=rows, tol=tol, passed=all(r.residual <= tol for r in rows))


def verify_mellin_link(f: AuxFunction, seq: GSequence, n_max: int, tol: float) -> MomentReport:
    """Relative residuals |f^(n+1) - g(n)| / g(n) for n = 0..n_max, one trapezoid
    row per n at mellin_transform's tolerance; ValueError as _order gives it."""
    n = np.arange(_order(n_max, math.inf, tol) + 1)
    fhat = _trapezoid(f.on_log_axis, QUAD_TOL, *_window(*f._tails, n), n + 1.0)[0]
    return _moment_report(seq.variant, fhat, seq.g, tol)


@dataclass(frozen=True)
class AsymptoticTerm:
    c: float
    nu: float
    w: float
    rho: float
    l: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.nu)):
            raise ValueError("AsymptoticTerm requires finite c and nu")
        if not (0 < self.w < math.inf and 0 < self.rho < math.inf):
            raise ValueError("AsymptoticTerm requires w > 0 and rho > 0")
        if not (0 <= self.l < math.inf and self.l == int(self.l)):
            raise ValueError("AsymptoticTerm requires an integer l >= 0")


@dataclass(frozen=True)
class AsymptoticFamily:
    """Ordered asymptotic scale c_j u^(-nu_j) exp(-w_j u^rho_j) ln^l_j u."""

    terms: tuple[AsymptoticTerm, ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("AsymptoticFamily requires at least one term")
        for a, b in zip(self.terms, self.terms[1:]):
            if (b.rho, b.w, b.nu, -b.l) <= (a.rho, a.w, a.nu, -a.l):
                raise ValueError("terms must be ordered by rho_j, then w_j, then nu_j "
                                 "nondecreasing, then l_j decreasing where those tie")

    def leading_index(self) -> int:
        for j, t in enumerate(self.terms):
            if t.c != 0:
                return j
        raise ValueError("all coefficients vanish; no leading term")

