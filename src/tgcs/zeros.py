"""Zeros of the truncation polynomials and orthogonal state pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gseq import GSequence
from .specfun import _scaled_exp
from .states import StateSpec

MAX_DEGREE = 100


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
    variable.
    """
    if k < 1:
        raise ValueError("polynomial_roots requires k >= 1")
    if k > MAX_DEGREE:
        raise RootFindingError(f"degree {k} exceeds the supported cap {MAX_DEGREE}")
    n = np.arange(k + 1)
    log_g = seq.log_g_array(n)
    log_s = (log_g[k] - log_g[0]) / k
    _, coeff = _scaled_exp(n * log_s - log_g)  # ascending powers of y
    roots_y = np.roots(coeff[::-1])

    dcoeff = coeff[1:] * np.arange(1, k + 1)
    for _ in range(50):
        p = np.polyval(coeff[::-1], roots_y)
        dp = np.polyval(dcoeff[::-1], roots_y)
        step = p / dp
        roots_y = roots_y - step
        if np.max(np.abs(step) / np.maximum(np.abs(roots_y), 1e-300)) < 1e-15:
            break

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
