#!/usr/bin/env python3
"""Census of mellin_transform against its closed form, over log-uniform draws.

    python3 scripts/mellin_census.py [--draws 6000] [--seed 2201]

Each draw takes nu + 1 in [1e-3, 100], rho in [1e-2, 1e3], w in [1e-30, 1e30]
and s - 1 in [1e-3, 100], all log-uniform, with s = 1 on half the draws.  Draws
whose exact transform rho^-1 w^-x Gamma(x), x = (s + nu)/rho, lies outside
(1e-290, 1e290) are skipped.  Each kept draw is ok (within QUAD_TOL of the
closed form), a miss (past it, a wrong answer) or refused (QuadratureError,
counted by message).  It prints the counts, the worst ok error, the time and
the slowest draw.
Run it in two checkouts to compare them.
"""

import argparse
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from tgcs.gseq import AuxFunction, mellin_transform
from tgcs.specfun import QUAD_TOL, QuadratureError


def census(draws: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    counts, refusals, worst, misses = Counter(), Counter(), 0.0, []
    slowest = (0.0, None)  # (seconds, (nu, rho, w, s))
    start = time.perf_counter()
    for _ in range(draws):
        nu = math.exp(rng.uniform(math.log(1e-3), math.log(100.0))) - 1.0
        rho, w, s1 = (math.exp(rng.uniform(math.log(a), math.log(b)))
                      for a, b in ((1e-2, 1e3), (1e-30, 1e30), (1e-3, 100.0)))
        s = 1.0 if rng.random() < 0.5 else 1.0 + s1
        x = (s + nu) / rho
        log_exact = -math.log(rho) - x * math.log(w) + math.lgamma(x)
        if not math.log(1e-290) < log_exact < math.log(1e290):
            continue
        began = time.perf_counter()
        try:
            value = mellin_transform(AuxFunction(nu, rho, w), s)
        except QuadratureError as exc:
            counts["refused"] += 1
            refusals[str(exc).split(" (")[0]] += 1
            continue
        finally:
            slowest = max(slowest, (time.perf_counter() - began, (nu, rho, w, s)),
                          key=lambda x: x[0])
        error = abs(value / math.exp(log_exact) - 1.0)
        if error <= QUAD_TOL:
            counts["ok"] += 1
            worst = max(worst, error)
        else:
            counts["miss"] += 1
            misses.append((nu, rho, w, s, error))
    print(f"kept {sum(counts.values())} of {draws}: ok {counts['ok']}, miss {counts['miss']}, "
          f"refused {counts['refused']}; worst ok error {worst:.2g}; "
          f"{time.perf_counter() - start:.1f} s")
    for message, count in refusals.most_common():
        print(f"  refused {count:5d}  {message}")
    for miss in misses:
        print("  miss nu=%r rho=%r w=%r s=%r error=%.2g" % miss)
    print("slowest draw nu=%r rho=%r w=%r s=%r" % slowest[1], f"{slowest[0]:.3f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=2201)
    args = parser.parse_args()
    census(args.draws, args.seed)
