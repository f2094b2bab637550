#!/usr/bin/env python3
"""Census of moment_check over log-uniform draws of the Wright, ML and general weights.

    python3 scripts/weight_census.py [--seed 2202] [--draws N]

Each check draws n_max in 0..6 and tol in [1e-10, 1e-5], log-uniform, and the
weight's parameters, log-uniform:

  wright   WrightWeight(lam, mu), lam in [0.02, 10], mu in [0.02, 0.5]; 800 draws
  ml       MLWeight(alpha, beta), alpha in [0.1, 10], beta in [0.02, 10]; 600 draws
  general  GeneralWeight(f, f.matching_sequence()), f = AuxFunction(nu, rho, w),
           nu + 1 in [1, 6], rho in [0.05, 20], w in [1e-3, 1e3]; 600 draws

--draws sets every family's count.  Each check passes (every residual within
tol), fails (a report past tol, a wrong answer) or is refused (QuadratureError,
counted by message).  It prints the counts and the time of each family, and its
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

from tgcs.completeness import GeneralWeight, MLWeight, WrightWeight, moment_check
from tgcs.gseq import AuxFunction
from tgcs.specfun import QuadratureError


def _log_uniform(rng, a: float, b: float) -> float:
    return math.exp(rng.uniform(math.log(a), math.log(b)))


def _general(rng) -> GeneralWeight:
    f = AuxFunction(_log_uniform(rng, 1.0, 6.0) - 1.0, _log_uniform(rng, 0.05, 20.0),
                    _log_uniform(rng, 1e-3, 1e3))
    return GeneralWeight(f, f.matching_sequence())


FAMILIES = {
    "wright": (800, lambda rng: WrightWeight(_log_uniform(rng, 0.02, 10.0),
                                             _log_uniform(rng, 0.02, 0.5))),
    "ml": (600, lambda rng: MLWeight(_log_uniform(rng, 0.1, 10.0),
                                     _log_uniform(rng, 0.02, 10.0))),
    "general": (600, _general),
}


def census(seed: int, draws: int | None) -> None:
    rng = np.random.default_rng(seed)
    slowest = (0.0, "")
    for family, (count, weight) in FAMILIES.items():
        counts, refusals = Counter(), Counter()
        start = time.perf_counter()
        for _ in range(count if draws is None else draws):
            w, n_max, tol = weight(rng), int(rng.integers(0, 7)), _log_uniform(rng, 1e-10, 1e-5)
            began = time.perf_counter()
            try:
                counts["pass" if moment_check(w, n_max, tol).passed else "fail"] += 1
            except QuadratureError as exc:
                counts["refused"] += 1
                refusals[str(exc).split(" (")[0]] += 1
            check = f"{w.label()} n_max={n_max} tol={tol:.3g}"
            slowest = max(slowest, (time.perf_counter() - began, check), key=lambda x: x[0])
        print(f"{family}: pass {counts['pass']}, fail {counts['fail']}, "
              f"refused {counts['refused']}; {time.perf_counter() - start:.1f} s")
        for message, number in refusals.most_common():
            print(f"  refused {number:5d}  {message}")
    print(f"slowest check: {slowest[1]}, {slowest[0]:.3f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2202)
    parser.add_argument("--draws", type=int, default=None)
    args = parser.parse_args()
    census(args.seed, args.draws)
