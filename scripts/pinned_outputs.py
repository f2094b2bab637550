#!/usr/bin/env python3
"""Print one sha256 per group of pinned outputs, for a before/after identity check.

    python3 scripts/pinned_outputs.py

Run it in two checkouts and compare the lines: a change that keeps every
pinned output prints the same hashes.  The groups:

  figure_grids_csvs  the eight CSVs of scripts/figure_grids.py (41 points)
  verify             run_verification_suite(), by repr
  sampler            sample_counts over random_state_spec seeds 0-2999,
                     n_samples in {1, 2, 3, 2000}
  infinite_rows      k = inf specs of random_state_spec seeds 3000-29999: the
                     probabilities' bytes, N, ln N, Q and g2
  weights            weight eval values and weight_radial_moment, fixed list
  cli_infinite       k = inf `tgcs mandel` and `tgcs corr` CSVs, fixed list
  quadrature         mellin_transform, kratzel_kernel and moment_check values of
                     the ML, Wright, general and canonical weights, fixed lists
  roots_overlaps     polynomial_roots roots and residuals of the factorial, g1, ML
                     and Wright sequences at k = 1..36, and overlap over a fixed
                     list of far-apart label pairs
  budget_edge        k = inf specs at the largest |z| each of five sequences
                     accepts within MAX_TERMS: the label, the level and ln N, and
                     the refusal at the next double

It takes about 15 s on 2 vCPUs.

A refused input hashes the type of its error, so a refusal that moves shows.
Where a change moves a hash by design, compare the values themselves:

    python3 scripts/pinned_outputs.py --compare OTHER_CHECKOUT

runs `weights_values()`, `quadrature_values()` and `run_verification_suite()`
in each checkout, in a subprocess with that checkout's src and scripts on the
path, and prints per group the number of values, how many moved from
OTHER_CHECKOUT's, the largest absolute and relative move, and each refusal that
moved.  It takes a few seconds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import figure_grids
from tgcs.cli import main, run_verification_suite
from tgcs.completeness import (CanonicalTruncatedWeight, GeneralWeight, MLWeight,
                               WrightWeight, moment_check, weight_radial_moment)
from tgcs.gseq import G1, AuxFunction, Factorial, MLGamma, WrightProduct, mellin_transform
from tgcs.sampler import sample_counts
from tgcs.specfun import QuadratureError, kratzel_kernel
from tgcs.states import (INFINITE, StateSpec, excitation_distribution, log_normalization,
                         overlap, random_state_spec)
from tgcs.statistics import correlation_g2, mandel_q
from tgcs.zeros import polynomial_roots

INFINITE_ROW_SEEDS = range(3000, 30000)
SAMPLER_SEEDS = range(3000)
SAMPLE_SIZES = (1, 2, 3, 2000)
WEIGHTS = [MLWeight(1.0, 1.0), MLWeight(0.5, 1.0), MLWeight(0.3, 1.7), MLWeight(2.0, 1.0, 5),
           WrightWeight(1.0, 1.0, 4), WrightWeight(0.7, 1.2),
           GeneralWeight(AuxFunction(1.0, 2.0, 1.0), G1(1.0, 2.0, 1.0)),
           GeneralWeight(AuxFunction(0.0, 1.9, 0.6), G1(0.0, 1.9, 0.6)),
           CanonicalTruncatedWeight(7)]
WEIGHT_U = np.array([1e-3, 0.5, 1.0, 7.0, 30.0, 64.0, 300.0])
CLI_SEQUENCES = [{"variant": "factorial"},
                 {"variant": "ml_gamma", "alpha": 0.5, "beta": 1.0},
                 {"variant": "ml_gamma", "alpha": 0.3, "beta": 1.5},
                 {"variant": "wright_product", "lam": 0.7, "mu": 1.2},
                 {"variant": "g1", "nu": 0.0, "rho": 1.9, "w": 0.6}]
CLI_ZMAX = (1.0, 3.0, 8.0, math.sqrt(300.0))
MELLIN = [(AuxFunction(), (1.0, 2.5, 6.0)),
          (AuxFunction(1.5, 0.8, 1.3), (1.0, 2.5, 5.0)),
          (AuxFunction(0.0, 1.9, 0.6), (1.0, 3.0, 9.0)),
          (AuxFunction(-0.5, 0.5, 2.0), (1.0, 4.0)),
          (AuxFunction(2.0, 3.0, 0.1), (1.0, 20.0)),
          (AuxFunction(0.0, 1.0, 1e200), (1.0,))]
KRATZEL = [WrightProduct(0.5, 0.5), WrightProduct(0.7, 1.2), WrightProduct(1.0, 1.0),
           WrightProduct(2.0, 1.0), WrightProduct(0.1, 0.1)]
KRATZEL_U = (1e-30, 1e-3, 0.5, 1.0, 7.0, 300.0, 1e6)
MOMENT_CHECKS = [(MLWeight(1.0, 1.0), 6), (MLWeight(0.5, 1.0), 4), (MLWeight(2.0, 0.1), 2),
                 (MLWeight(2.0, 1.0, 5), 5), (WrightWeight(1.0, 1.0, 4), 2),
                 (WrightWeight(0.7, 1.2), 2), (WrightWeight(1.0, 0.5), 3),
                 (GeneralWeight(AuxFunction(1.0, 2.0, 1.0), G1(1.0, 2.0, 1.0)), 6),
                 (GeneralWeight(AuxFunction(0.0, 1.9, 0.6), G1(0.0, 1.9, 0.6)), 4),
                 (CanonicalTruncatedWeight(1), 1), (CanonicalTruncatedWeight(7), 7)]

ROOT_SEQUENCES = [Factorial(), G1(1.0, 1.5, 0.8), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5)]
ROOT_DEGREES = range(1, 37)
# (sequence, k, z1, z2): labels orders of magnitude apart, the origin among them
OVERLAP_PAIRS = [(Factorial(), 10, 0.1, 1e100), (Factorial(), 7, 0.0, 1e50j),
                 (G1(1.0, 1.5, 0.8), 5, 1e-150j, 1e150), (G1(0.0, 1.9, 0.6), 30, 2.0, -3e4),
                 (MLGamma(0.5, 0.5), 36, 1e-3, 300j), (MLGamma(0.3, 1.5), 12, -1e-8, 1e8 - 1e8j),
                 (WrightProduct(0.5, 0.5), 20, 1e150, -1e150),
                 (WrightProduct(0.7, 1.2), 1, 1e-300, 5.0 + 5.0j)]
# (sequence, the largest z it accepts at k = inf), found by bisection on the doubles
BUDGET_EDGE = [(Factorial(), 1443.3373913214566), (MLGamma(0.5, 1.0), 31.924384643984414),
               (G1(0.0, 1.9, 0.6), 44.41789750710536),
               (WrightProduct(0.2, 0.3), 5266.200449073403),
               (MLGamma(0.2148531279075242, 2.016686133027092), 4.042856483409545)]


def _refused(h, call):
    """call(), or None with the refusal's type hashed."""
    try:
        return call()
    except ValueError as exc:
        h.update(f"refused {type(exc).__name__}".encode())
        return None


def figure_grids_csvs(h):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        figure_grids.run(Path(tmp), 41)
        for path in sorted(Path(tmp).iterdir()):
            h.update(path.name.encode() + path.read_bytes())


def verify(h):
    h.update(repr(run_verification_suite()).encode())


def sampler(h):
    for seed in SAMPLER_SEEDS:
        spec = _refused(h, lambda: random_state_spec(np.random.default_rng(seed)))
        if spec is None:
            continue
        dist = excitation_distribution(spec)
        for n in SAMPLE_SIZES:
            run = sample_counts(dist, n, seed)
            h.update(run.counts.tobytes() + repr((run.q_hat, run.g2_hat, run.stderr_q)).encode())


def infinite_rows(h):
    for seed in INFINITE_ROW_SEEDS:
        spec = _refused(h, lambda: random_state_spec(np.random.default_rng(seed)))
        if spec is None or spec.k != INFINITE:
            continue
        dist = excitation_distribution(spec)
        q = mandel_q(spec).q if spec.u > 0 else None
        g2 = correlation_g2(spec) if spec.u > 0 else None
        h.update(dist.probs.tobytes() + repr((dist.norm, log_normalization(spec), q, g2)).encode())


def weights_values():
    """(label, value) for each weights output: U at WEIGHT_U (or the type of its
    refusal), then the radial moments."""
    for w in WEIGHTS:
        try:
            yield f"eval {w.label()}", w.eval(WEIGHT_U)
        except ValueError as exc:
            yield f"eval {w.label()}", type(exc).__name__
        for n in range(3 if w.k == INFINITE else min(3, w.k + 1)):
            yield f"radial {w.label()} n={n}", weight_radial_moment(w, n)


def weights(h):
    for label, value in weights_values():
        if label.startswith("eval "):
            h.update(label.removeprefix("eval ").encode())
            h.update(f"refused {value}".encode() if isinstance(value, str) else value.tobytes())
        else:
            h.update(repr(value).encode())


def cli_infinite(h):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
        for seq in CLI_SEQUENCES:
            for zmax in CLI_ZMAX:
                cfg.write_text(json.dumps({"sequence": seq, "k": "inf",
                                           "z_grid": {"min": 0.0, "max": zmax, "points": 41}}))
                for command in ("mandel", "corr"):
                    out.write_bytes(b"")
                    rc = main([command, "--config", str(cfg), "--out", str(out)])
                    h.update(f"{command} {rc}".encode() + out.read_bytes())


def quadrature_values():
    """(label, value or the type of its refusal) for each quadrature output."""
    calls = [(f"mellin {f} s={s}", lambda f=f, s=s: mellin_transform(f, s))
             for f, ss in MELLIN for s in ss]
    calls += [(f"kratzel {seq} u={u}", lambda seq=seq, u=u: kratzel_kernel(seq, u))
              for seq in KRATZEL for u in KRATZEL_U]
    calls += [(f"moments {w.label()}",
               lambda w=w, n=n: [r.value for r in moment_check(w, n, 1e-8).rows])
              for w, n in MOMENT_CHECKS]
    for label, call in calls:
        try:
            yield label, call()
        except (ValueError, QuadratureError) as exc:
            yield label, type(exc).__name__


def quadrature(h):
    for label, value in quadrature_values():
        h.update(f"{label} {value!r}".encode())


def roots_overlaps(h):
    for seq in ROOT_SEQUENCES:
        for k in ROOT_DEGREES:
            rs = polynomial_roots(seq, k)
            h.update(rs.roots.tobytes() + rs.residuals.tobytes())
    for seq, k, z1, z2 in OVERLAP_PAIRS:
        # as complex, overlap's declared type: an exact 0 may come as float 0.0 or 0j
        value = _refused(h, lambda: complex(overlap(StateSpec(seq, k, z1),
                                                    StateSpec(seq, k, z2))))
        h.update(repr(value).encode())


def budget_edge(h):
    for seq, z in BUDGET_EDGE:
        spec = StateSpec(seq, INFINITE, z)
        level = len(excitation_distribution(spec).probs) - 1
        h.update(repr((seq, z, math.log(spec.u), level, log_normalization(spec))).encode())
        _refused(h, lambda: StateSpec(seq, INFINITE, math.nextafter(z, math.inf)))


GROUPS = [figure_grids_csvs, verify, sampler, infinite_rows, weights, cli_infinite, quadrature,
          roots_overlaps, budget_edge]

# the compared values of the checkout whose src and scripts are argv[1:3], pickled to
# stdout; it calls only functions that checkouts without --compare have too
_VALUES = """
import pickle, sys
sys.path[:0] = sys.argv[1:3]
import pinned_outputs
from tgcs.cli import run_verification_suite
pickle.dump({"weights": list(pinned_outputs.weights_values()),
             "quadrature": list(pinned_outputs.quadrature_values()),
             "verify": [(c["check"], c["residual"]) for c in run_verification_suite()[0]]},
            sys.stdout.buffer)
"""


def _values(roots):
    """The compared values of each checkout in roots, both run at once."""
    runs = [subprocess.Popen([sys.executable, "-c", _VALUES, str(root / "src"),
                              str(root / "scripts")], cwd=root, stdout=subprocess.PIPE)
            for root in roots]
    outs = [run.communicate()[0] for run in runs]
    for root, run in zip(roots, runs):
        if run.returncode:
            sys.exit(f"the values of {root} exited with code {run.returncode}")
    return [pickle.loads(out) for out in outs]


def compare(other: Path) -> None:
    """Per group: the values, those moved from other's, the largest absolute and
    relative move, and each refusal (a value given as the type of its error) that
    moved."""
    before, after = _values([other, ROOT])
    for group, rows in after.items():
        if [label for label, _ in rows] != [label for label, _ in before[group]]:
            print(f"{group:10} the labels differ: no value-by-value comparison")
            continue
        count = moved = 0
        largest, where, absolute, refusals = 0.0, "", 0.0, []
        for (label, old), (_, new) in zip(before[group], rows):
            if isinstance(old, str) or isinstance(new, str):
                count += 1
                if not (isinstance(old, str) and old == new):
                    moved += 1
                    refusals.append(f"{label}: {old!r} -> {new!r}")
                continue
            old, new = (np.ravel(np.asarray(x, dtype=float)) for x in (old, new))
            same = (old == new) | (np.isnan(old) & np.isnan(new))
            count, moved = count + old.size, moved + int(np.sum(~same))
            if same.all():
                continue
            with np.errstate(all="ignore"):
                move = np.where(same, 0.0, np.abs(new - old))
                relative = np.where(same, 0.0, move / np.abs(old))
            absolute = max(absolute, float(np.max(move)))
            if np.max(relative) > largest:
                largest, where = float(np.max(relative)), label
        print(f"{group:10} {count} values, {moved} moved; largest move {absolute:.3g}, "
              f"relative {largest:.3g}" + (f" at {where}" if where else ""))
        for line in refusals:
            print(f"  refusal moved: {line}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", type=Path, metavar="OTHER_CHECKOUT",
                        help="compare the weights, quadrature and verify values with "
                             "those of another checkout instead of printing the hashes")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare.resolve())
        sys.exit()
    for group in GROUPS:
        start = time.perf_counter()
        h = hashlib.sha256()
        group(h)
        print(f"{group.__name__:18} {h.hexdigest()}  ({time.perf_counter() - start:.1f} s)",
              flush=True)
