"""Zeros of the truncation polynomials and orthogonal state pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gseq import GSequence
from .specfun import _shifted_rows
from .states import StateSpec

MAX_DEGREE = 100
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class RootSet:
    """All k roots of sum_{n=0}^{k} z^n / g(n), with scaled residuals."""

    roots: np.ndarray
    residuals: np.ndarray


def polynomial_roots(seq: GSequence, k: int) -> RootSet:
    """Roots via the companion matrix of a rescaled monic polynomial.

    The raw coefficients 1/g(n) span many orders of magnitude for Gamma-type
    sequences; substituting z = s*y with ln s = (ln g(k) - ln g(0))/k balances
    them before the eigenvalue solve.  A Newton polish runs in the scaled
    variable, for at most 50 steps.  It stops once the largest relative step
    is below 1e-15, or is below sqrt(eps) and no smaller than the step before:
    a converging Newton step that small shrinks quadratically, so one that
    does not is the rounding noise of evaluating p in double.  Above sqrt(eps)
    the steps of ill-conditioned roots are not yet monotone, so there only the
    1e-15 test or the cap ends the polish.  An estimate where p'(y) = 0, as
    at an exact double root, takes no step instead of dividing 0 by 0.
    """
    if k < 1:
        raise ValueError("polynomial_roots requires k >= 1")
    if k > MAX_DEGREE:
        raise RootFindingError(f"degree {k} exceeds the supported cap {MAX_DEGREE}")
    log_g = seq.log_g_array(np.arange(k + 1))
    log_s = (log_g[k] - log_g[0]) / k
    (_, (coeff,), _), = _shifted_rows(log_g, 0, [log_s])  # ascending powers of y
    roots_y = np.roots(coeff[::-1])

    dcoeff = coeff[1:] * np.arange(1, k + 1)
    prev = math.inf
    for _ in range(50):
        p = np.polyval(coeff[::-1], roots_y)
        dp = np.polyval(dcoeff[::-1], roots_y)
        step = np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
        roots_y = roots_y - step
        size = np.max(np.abs(step) / np.maximum(np.abs(roots_y), 1e-300))
        if size < 1e-15 or _SQRT_EPS > size >= prev:
            break
        prev = size

    residuals = np.abs(np.polyval(coeff[::-1], roots_y)) / np.max(coeff)
    roots = roots_y * math.exp(log_s)

    order = np.lexsort((_wrapped_arg(roots), np.round(np.abs(roots), 12)))
    return RootSet(roots=roots[order], residuals=residuals[order])


def _wrapped_arg(roots: np.ndarray) -> np.ndarray:
    """Argument in (-pi, pi], mapping the -pi branch cut onto +pi."""
    a = np.angle(roots)
    a[np.isclose(a, -math.pi)] = math.pi
    return a


def orthogonal_pair(seq: GSequence, k: int, root: complex,
                    z1: complex) -> tuple[StateSpec, StateSpec]:
    """Specs with z2 = root / conj(z1), so z1* z2 hits the given zero."""
    if z1 == 0:
        raise ValueError("z1 must be nonzero")
    z2 = root / np.conj(z1)
    return (StateSpec(seq=seq, k=k, z=complex(z1)),
            StateSpec(seq=seq, k=k, z=complex(z2)))
