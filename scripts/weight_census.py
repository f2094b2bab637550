#!/usr/bin/env python3
"""Census of moment_check and weight_radial_moment over log-uniform draws of the weights.

    python3 scripts/weight_census.py [--seed 2202] [--draws N]

Each moment_check draws the weight's parameters, then n_max in 0..6 and tol in
[1e-10, 1e-5], log-uniform; the parameters, log-uniform:

  wright   WrightWeight(lam, mu), lam in [0.02, 10], mu in [0.02, 0.5]; 800 draws
  ml       MLWeight(alpha, beta), alpha in [0.1, 10], beta in [0.02, 10]; 600 draws
  general  GeneralWeight(f, f.matching_sequence()), f = AuxFunction(nu, rho, w),
           nu + 1 in [1, 6], rho in [0.05, 20], w in [1e-3, 1e3]; 600 draws

and one family of radial moments, weight_radial_moment(w, n) against g(n) at
RADIAL_TOL relative, n in 0..6:

  radial   MLWeight(alpha, beta), alpha in [1e-4, 10], beta in [0.02, 10]; 300 draws

--draws sets every family's count.  Each check passes (every residual within
tol), fails (a report past tol, a wrong answer) or is refused: QuadratureError,
counted by message, or DivergenceError (a k = inf series past MAX_TERMS terms),
counted apart.  It prints the counts and the time of each family, and its
slowest check.  Run it in two checkouts to compare them.
"""

import argparse
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from tgcs.completeness import (GeneralWeight, MLWeight, WrightWeight, moment_check,
                               weight_radial_moment)
from tgcs.gseq import AuxFunction
from tgcs.specfun import QuadratureError
from tgcs.states import DivergenceError

RADIAL_TOL = 1e-7


def _log_uniform(rng, a: float, b: float) -> float:
    return math.exp(rng.uniform(math.log(a), math.log(b)))


def _general(rng) -> GeneralWeight:
    f = AuxFunction(_log_uniform(rng, 1.0, 6.0) - 1.0, _log_uniform(rng, 0.05, 20.0),
                    _log_uniform(rng, 1e-3, 1e3))
    return GeneralWeight(f, f.matching_sequence())


def _moment_check(weight):
    """Draws of the weight, n_max and tol: (a label, a call that says whether it passes)."""
    def draw(rng):
        w, n_max, tol = weight(rng), int(rng.integers(0, 7)), _log_uniform(rng, 1e-10, 1e-5)
        return (f"{w.label()} n_max={n_max} tol={tol:.3g}",
                lambda: moment_check(w, n_max, tol).passed)
    return draw


def _radial(rng):
    w = MLWeight(_log_uniform(rng, 1e-4, 10.0), _log_uniform(rng, 0.02, 10.0))
    n = int(rng.integers(0, 7))
    target = w.moment_target(n)
    return (f"{w.label()} n={n}",
            lambda: abs(weight_radial_moment(w, n) - target) <= RADIAL_TOL * target)


FAMILIES = {
    "wright": (800, _moment_check(lambda rng: WrightWeight(_log_uniform(rng, 0.02, 10.0),
                                                           _log_uniform(rng, 0.02, 0.5)))),
    "ml": (600, _moment_check(lambda rng: MLWeight(_log_uniform(rng, 0.1, 10.0),
                                                   _log_uniform(rng, 0.02, 10.0)))),
    "general": (600, _moment_check(_general)),
    "radial": (300, _radial),
}


def census(seed: int, draws: int | None) -> None:
    rng = np.random.default_rng(seed)
    slowest = (0.0, "")
    for family, (count, draw) in FAMILIES.items():
        counts, refusals = Counter(), Counter()
        start = time.perf_counter()
        for _ in range(count if draws is None else draws):
            check, passes = draw(rng)
            began = time.perf_counter()
            try:
                counts["pass" if passes() else "fail"] += 1
            except QuadratureError as exc:
                counts["refused"] += 1
                refusals[str(exc).split(" (")[0]] += 1
            except DivergenceError:
                counts["diverged"] += 1
            slowest = max(slowest, (time.perf_counter() - began, check), key=lambda x: x[0])
        print(f"{family}: pass {counts['pass']}, fail {counts['fail']}, "
              f"refused {counts['refused']}, diverged {counts['diverged']}; "
              f"{time.perf_counter() - start:.1f} s")
        for message, number in refusals.most_common():
            print(f"  refused {number:5d}  {message}")
    print(f"slowest check: {slowest[1]}, {slowest[0]:.3f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2202)
    parser.add_argument("--draws", type=int, default=None)
    args = parser.parse_args()
    census(args.seed, args.draws)
