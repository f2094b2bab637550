"""Seeded op lists for the three benchmark workloads, their executors and checks.

An op is one call the benchmark makes into the toolkit.  Each op kind has

* a build step, which turns the generated parameters into toolkit inputs.  A typed
  error raised here (``ValueError`` and its subclasses, such as
  ``DivergenceError``) is a *refusal*: the toolkit declined the input when it
  was constructed;
* a runner, which makes the call.  An exception raised here is a *failure*,
  as is a CLI exit code other than 0 and 2 (2 is the CLI's config refusal);
* a check, which compares the output against an independent route.  It
  returns PASS; MISS when the output falls short of its accuracy target and
  says so itself (a residual column, a report's ``passed`` flag); or WRONG
  when the output contradicts the independent route.  MISS and WRONG both
  make the op a failure; only WRONG makes the run's outputs incorrect.

Executors reach the toolkit through module attributes (``tg.states.x``) at call
time, so that the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import tgcs as tg
import tgcs.cli
import tgcs.completeness
import tgcs.gseq
import tgcs.sampler
import tgcs.specfun
import tgcs.states
import tgcs.statistics
import tgcs.zeros

WORKLOADS = ("surfaces", "untruncated", "moments")

# the four reference surfaces of scripts/figure_grids.py
FIGURES = (
    ({"variant": "ml_gamma", "alpha": 0.5, "beta": 0.5}, 10),
    ({"variant": "ml_gamma", "alpha": 0.1, "beta": 0.1}, 20),
    ({"variant": "wright_product", "lam": 0.5, "mu": 0.5}, 10),
    ({"variant": "wright_product", "lam": 0.1, "mu": 0.1}, 20),
)
# random_state_spec's families and parameter ranges
FAMILY_RANGES = {
    "factorial": {},
    "ml_gamma": {"alpha": (0.2, 3.0), "beta": (0.2, 3.0)},
    "wright_product": {"lam": (0.2, 3.0), "mu": (0.2, 3.0)},
    "g1": {"nu": (0.0, 2.0), "rho": (0.5, 2.0), "w": (0.5, 2.0)},
}
# ROADMAP item 1 repro: random_state_spec(np.random.default_rng(75168))
ITEM1_REPRO = {"seq": {"variant": "ml_gamma", "alpha": 0.2148531279075242,
                       "beta": 2.016686133027092},
               "re": -2.6957602175846755, "im": -2.339243072207651}
# ROADMAP item 2: 61 181 stored entries, 6 847 of them above 1e-30
G1_WASTE = {"seq": {"variant": "g1", "nu": 0.0, "rho": 1.9, "w": 0.6},
            "re": math.sqrt(300.0), "im": 0.0}

SURFACE_K_MAX = 200
# Timed ops must all pass their checks, so the timed designs stop short of
# inputs the toolkit gets wrong at this commit; those inputs run instead as
# the known-defect probes below.  `zeros` misses its 1e-9 residual from
# degree 39 (factorial), and for g1 from k/rho of about 43, up to MAX_DEGREE.
# ML specs with alpha below about 0.35 and |z| of a few units fail with
# DivergenceError after the spec was accepted (ROADMAP item 1) or are refused.
ZEROS_K_MAX = 36
ML_ALPHA_MIN = 0.4
SURFACE_POINTS = 21
FIGURE_POINTS = 41
SAMPLE_DRAWS = 2000

# ops per pass.  Each op's latency is its median over the passes of a run,
# and p90 needs at least ten ops above it, so every list holds 100 ops or
# more.  The counts put p50 and p90 inside one kind's latency band, away from
# the gap between two kinds: on moments p50 falls among the general-weight
# checks and p90 among the Wright checks, 30 of them so that p90 sits well
# inside their steep cost range and the seed's shift of the design is small.
# On untruncated p90 sits where the cost curve is steep, and 200 specs per
# family halve how far p90 moves when an op or two changes rank.
SURFACE_COUNTS = {"probs": 50, "mandel": 50, "sweep": 20, "corr": 50,
                  "closed_form": 50, "zeros": 40}
UNTRUNCATED_PER_FAMILY = 200
MOMENT_COUNTS = {"mellin": 20, "ml": 20, "general": 25, "radial": 12,
                 "bargmann": 4, "wright": 30}
WRIGHT_N_MAX = 2

PROBS_TOL = 1e-9          # relative, per probability, against the reference pmf
Q_TOL = 1e-9              # relative to max(|Q|, 1e-3 (1+u)), as `tgcs verify` scales it
G2_TOL = 1e-9
LOG_NORM_TOL = 1e-9
ROOT_TOL = 1e-9           # scaled residual bound of `tgcs zeros`
MOMENT_ROUTE_TOL = 1e-7   # uncancelled radial moments against g(n)
SAMPLER_SIGMAS = 5.0
# the jackknife error of q_hat holds once the draws include enough values
# n >= 2; below that the sample mean is checked against its exact error
JACKKNIFE_MIN_DRAWS = 20
EPS = float(np.finfo(float).eps)

PASS, MISS, WRONG = "pass", "miss", "wrong"


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict[str, Any]


@dataclass
class Outcome:
    status: str            # "ok", "refused" or "failed"
    output: Any = None
    error: str = ""
    warnings: int = 0
    latency_s: float = 0.0


@dataclass
class Workspace:
    """Directory for the CLI config files of one run, inside the checkout."""

    path: Path
    configs: dict[int, str] = field(default_factory=dict)

    def write_config(self, index: int, cfg: dict[str, Any]) -> str:
        p = self.path / f"op{index}.json"
        p.write_text(json.dumps(cfg))
        self.configs[index] = str(p)
        return str(p)


# ---------------------------------------------------------------- generation

def _shifted_halton(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of the Halton sequence in [0, 1)^dims, shifted by under 1/n.

    The points fill every box of the cube in proportion to its volume,
    corners included, and the seed moves each point by less than one stratum.
    Costs are steep in the corners (on untruncated, one spec at small alpha
    and large |z| needs 10^5 terms and its neighbour is refused), and there
    independent draws swung the work of a pass by a third from seed to seed.
    """
    # by hand: scipy.stats.qmc would load scipy.stats, which tgcs does not
    # use, adding about 19 MB to the peak RSS that peak_rss_mb reports
    pts = np.empty((n, dims))
    for d, base in enumerate((2, 3, 5, 7, 11)[:dims]):
        for i in range(n):
            x, f, j = 0.0, 1.0 / base, i + 1
            while j:
                x += f * (j % base)
                j //= base
                f /= base
            pts[i, d] = x
    return (pts + rng.random(dims) / max(n, 1)) % 1.0


def _design(rng: np.random.Generator, n: int,
            ranges: dict[str, tuple[float, float]]) -> list[dict[str, float]]:
    """n parameter sets spread over the given ranges (see _shifted_halton)."""
    pts = _shifted_halton(rng, n, len(ranges))
    return [{name: lo + (hi - lo) * float(pts[i, d])
             for d, (name, (lo, hi)) in enumerate(ranges.items())} for i in range(n)]


def known_defects(workload: str) -> list[Op]:
    """Pinned inputs that fail at this commit, run and checked once per run.

    They are not timed and do not count as ops; their outcomes are reported
    as `known_defects.open`, which falls as the defects are fixed.
    """
    if workload == "surfaces":
        g1 = {"variant": "g1", "nu": 1.0, "rho": 1.25, "w": 1.25}
        return [Op("zeros", {"sequence": seq, "k": k})
                for seq, k in (({"variant": "factorial"}, 39), (g1, 60),
                               ({"variant": "factorial"}, tg.zeros.MAX_DEGREE))]
    if workload == "untruncated":
        return [Op("bundle", {**ITEM1_REPRO, "sample_seed": 2})] + [
            Op("bundle", {"seq": {"variant": "ml_gamma", "alpha": a, "beta": b},
                          "re": r, "im": 0.0, "sample_seed": 3})
            for a, b, r in ((0.333, 0.767, 7.7), (0.2455, 2.426, 4.5),
                            (0.2236, 1.32, 8.98))]
    if workload == "moments":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def lead_op(workload: str) -> Op:
    """The fixed first op of every op list; `setup_s` times it cold."""
    if workload == "surfaces":
        seq, k = FIGURES[0]
        return Op("probs", {"sequence": seq, "k": k,
                            "z_grid": {"min": 0.0, "max": 10.0, "points": FIGURE_POINTS}})
    if workload == "untruncated":
        return Op("bundle", {**G1_WASTE, "sample_seed": 1})
    if workload == "moments":
        return Op("verify", {})
    raise ValueError(f"unknown workload {workload!r}")


def _surface_params(kind: str, seq: dict, k: int, zmax: float, points: int) -> dict:
    p: dict[str, Any] = {"sequence": seq, "k": k}
    if kind in ("probs", "corr"):
        p["z_grid"] = {"min": 0.0, "max": zmax, "points": points}
    elif kind != "zeros":
        p["z_grid"] = {"min": 0.01, "max": zmax, "points": points, "scale": "log"}
    return p


def _surfaces(rng: np.random.Generator) -> list[Op]:
    ops = []
    kinds = ("probs", "mandel", "corr", "closed_form", "zeros")
    for (seq, k), d in zip(FIGURES, _design(rng, len(FIGURES),
                                             {kind: (5.0, 10.0) for kind in kinds})):
        ops += [Op(kind, _surface_params(kind, seq, k, d[kind], FIGURE_POINTS))
                for kind in kinds]
    g1 = FAMILY_RANGES["g1"]
    for kind, count in SURFACE_COUNTS.items():
        # the factorial and g1 variants; a sweep needs a parameter, so g1 only
        k_max = ZEROS_K_MAX if kind == "zeros" else SURFACE_K_MAX
        base = {"k": (1.0, k_max + 1.0), "zmax": (1.0, 10.0)}
        n_fact = 0 if kind == "sweep" else count // 2
        designs = ([({"variant": "factorial"}, d) for d in _design(rng, n_fact, base)]
                   + [({"variant": "g1", **{n: d[n] for n in g1}}, d)
                      for d in _design(rng, count - n_fact, {**base, **g1})])
        for j, (seq, d) in enumerate(designs):
            k = int(d["k"])
            if kind == "zeros" and seq["variant"] == "g1":
                # g(n) grows like (n/rho)!: keep that degree under the cap too
                k = max(1, int(d["k"] * min(1.0, seq["rho"])))
            p = _surface_params("mandel" if kind == "sweep" else kind, seq,
                                k, d["zmax"], SURFACE_POINTS)
            if kind == "sweep":
                name = ("nu", "rho", "w")[j % 3]
                p["param_sweep"] = {"name": name, "min": g1[name][0], "max": g1[name][1],
                                    "points": 6}
            ops.append(Op("mandel" if kind == "sweep" else kind, p))
    return ops


def _untruncated(rng: np.random.Generator) -> list[Op]:
    ops = []
    n = UNTRUNCATED_PER_FAMILY
    for variant, ranges in FAMILY_RANGES.items():
        if variant == "ml_gamma":
            ranges = {**ranges, "alpha": (ML_ALPHA_MIN, ranges["alpha"][1])}
        theta = rng.uniform(-math.pi, math.pi, n)
        for i, d in enumerate(_design(rng, n, {**ranges, "r": (0.0, 10.0)})):
            seq = {"variant": variant, **{name: d[name] for name in ranges}}
            z = d["r"] * complex(math.cos(theta[i]), math.sin(theta[i]))
            ops.append(Op("bundle", {"seq": seq, "re": z.real, "im": z.imag,
                                     "sample_seed": int(rng.integers(2 ** 32))}))
    return ops


def _moments(rng: np.random.Generator) -> list[Op]:
    # the ranges of the tgcs acceptance tests (criterion 07, test_completeness,
    # test_states)
    c = MOMENT_COUNTS
    ops = [Op("ml", {**d, "n_max": 6, "tol": 1e-8})
           for d in _design(rng, c["ml"], {"alpha": (0.1, 2.0), "beta": (0.1, 1.0)})]
    for kind, n_max in (("general", 6), ("mellin", 8)):
        ops += [Op(kind, {"f": d, "n_max": n_max, "tol": 1e-6})
                for d in _design(rng, c[kind], FAMILY_RANGES["g1"])]
    ml_half = {"alpha": (0.5, 2.0), "beta": (0.5, 1.0)}
    ops += [Op("radial", {**d, "n": i % 4})
            for i, d in enumerate(_design(rng, c["radial"], ml_half))]
    for i, d in enumerate(_design(rng, c["bargmann"], ml_half)):
        k = 3 + i % 4
        v = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        v /= np.linalg.norm(v)
        ops.append(Op("bargmann", {**d, "k": k, "re": v.real.tolist(),
                                   "im": v.imag.tolist()}))
    ops += [Op("wright", {**d, "n_max": WRIGHT_N_MAX, "tol": 1e-6})
            for d in _design(rng, c["wright"], {"lam": (0.5, 1.0), "mu": (0.5, 1.0)})]
    return ops


def op_list(workload: str, seed: int) -> list[Op]:
    """The workload's op list for a seed: the lead op, then the seeded ops shuffled."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    body = {"surfaces": _surfaces, "untruncated": _untruncated,
            "moments": _moments}[workload](rng)
    return [lead_op(workload)] + [body[i] for i in rng.permutation(len(body))]


# ---------------------------------------------------------------- execution

CLI_KINDS = ("probs", "mandel", "corr", "zeros", "verify")


def prepare(ops: list[Op], ws: Workspace, start: int = 0) -> None:
    """Write the config file of every CLI op (outside any timed region).

    The ops take the indices start, start + 1, ...
    """
    for i, op in enumerate(ops, start):
        if op.kind in CLI_KINDS and op.kind != "verify":
            ws.write_config(i, op.params)


def _argv(op: Op, index: int, ws: Workspace) -> list[str]:
    if op.kind == "verify":
        return ["verify"]
    return [op.kind, "--config", ws.configs[index]]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tg.cli.main(argv)
    return rc, out.getvalue()


def _build(op: Op):
    p = op.params
    if op.kind == "bundle":
        seq = tg.gseq.GSequence.from_json(p["seq"])
        return tg.states.StateSpec(seq, tg.states.INFINITE, complex(p["re"], p["im"]))
    if op.kind == "closed_form":
        return tg.gseq.GSequence.from_json(p["sequence"])
    if op.kind in ("ml", "radial"):
        return tg.completeness.MLWeight(p["alpha"], p["beta"], tg.states.INFINITE)
    if op.kind == "wright":
        return tg.completeness.WrightWeight(p["lam"], p["mu"], tg.states.INFINITE)
    if op.kind in ("general", "mellin"):
        f = tg.gseq.AuxFunction(**p["f"])
        return f, f.matching_sequence()
    if op.kind == "bargmann":
        psi = tg.states.FockVector(np.array(p["re"]) + 1j * np.array(p["im"]))
        return (psi, tg.gseq.MLGamma(p["alpha"], p["beta"]),
                tg.completeness.MLWeight(p["alpha"], p["beta"], p["k"]))
    raise ValueError(f"unknown op kind {op.kind!r}")


def _call(op: Op, inputs):
    p = op.params
    if op.kind == "bundle":
        spec = inputs
        dist = tg.states.excitation_distribution(spec)
        q = tg.statistics.mandel_q(spec)
        g2 = tg.statistics.correlation_g2(spec)
        run = tg.sampler.sample_counts(dist, SAMPLE_DRAWS, p["sample_seed"])
        return {"probs": dist.probs, "norm": dist.norm, "q": q.q, "mean": q.mean_n,
                "g2": g2, "counts": run.counts, "q_hat": run.q_hat,
                "stderr_q": run.stderr_q}
    if op.kind == "closed_form":
        return np.array([tg.statistics.mandel_q_closed_form(inputs, p["k"], float(r) ** 2)
                         for r in _grid(p["z_grid"])])
    if op.kind in ("ml", "wright"):
        return tg.completeness.moment_check(inputs, p["n_max"], p["tol"])
    if op.kind == "general":
        f, seq = inputs
        w = tg.completeness.GeneralWeight(f, seq, tg.states.INFINITE)
        return tg.completeness.moment_check(w, p["n_max"], p["tol"])
    if op.kind == "mellin":
        f, seq = inputs
        return tg.gseq.verify_mellin_link(f, seq, p["n_max"], p["tol"])
    if op.kind == "radial":
        return tg.completeness.weight_radial_moment(inputs, p["n"])
    if op.kind == "bargmann":
        psi, seq, weight = inputs
        return tg.states.bargmann_inner_product(psi, psi, seq, p["k"], weight)
    raise ValueError(f"unknown op kind {op.kind!r}")


def execute(op: Op, index: int, ws: Workspace) -> Outcome:
    """Run one op, timing build and call together, and classify its outcome.

    Warnings raised during the op are recorded and counted, not printed.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _execute(op, index, ws)
    outcome.warnings = len(caught)
    return outcome


def _execute(op: Op, index: int, ws: Workspace) -> Outcome:
    if op.kind in CLI_KINDS:
        argv = _argv(op, index, ws)
        t0 = time.perf_counter()
        try:
            rc, text = _cli(argv)
        except Exception as exc:  # noqa: BLE001 - any escape from main is a failure
            return Outcome("failed", error=repr(exc), latency_s=time.perf_counter() - t0)
        dt = time.perf_counter() - t0
        if rc == 2:
            return Outcome("refused", (rc, text), "config refusal", latency_s=dt)
        if rc != 0:
            return Outcome("failed", (rc, text), f"exit {rc}", latency_s=dt)
        return Outcome("ok", (rc, text), latency_s=dt)
    t0 = time.perf_counter()
    try:
        inputs = _build(op)
    except ValueError as exc:
        return Outcome("refused", error=repr(exc), latency_s=time.perf_counter() - t0)
    try:
        out = _call(op, inputs)
    except Exception as exc:  # noqa: BLE001 - any raise after acceptance is a failure
        return Outcome("failed", error=repr(exc), latency_s=time.perf_counter() - t0)
    return Outcome("ok", out, latency_s=time.perf_counter() - t0)


# ---------------------------------------------------------------- checks
#
# Each check recomputes the op's result by a route that does not share the
# code path under test: a numpy reference built here from the closed forms of
# g(n), the closed-form Q series, the special-function series, or the
# identity the output must satisfy.

def _grid(spec: dict[str, Any]) -> np.ndarray:
    if spec.get("scale") == "log":
        return np.geomspace(spec["min"], spec["max"], spec["points"])
    return np.linspace(spec["min"], spec["max"], spec["points"])


def ref_log_g(seq: dict[str, Any], n: np.ndarray) -> np.ndarray:
    """ln g(n) straight from each family's closed form."""
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    n = np.asarray(n, dtype=float)
    v = seq["variant"]
    if v == "factorial":
        return lgamma(n + 1.0)
    if v == "ml_gamma":
        return lgamma(seq["alpha"] * n + seq["beta"])
    if v == "wright_product":
        return lgamma(n + 1.0) + lgamma(seq["lam"] * n + seq["mu"])
    if v == "g1":
        s = (n + seq["nu"] + 1.0) / seq["rho"]
        return -math.log(seq["rho"]) - s * math.log(seq["w"]) + lgamma(s)
    raise ValueError(f"no reference for variant {v!r}")


def ref_pmf(seq: dict[str, Any], k: int, u: float) -> np.ndarray:
    n = np.arange(k + 1)
    if u == 0.0:
        return (n == 0).astype(float)
    lt = n * math.log(u) - ref_log_g(seq, n)
    w = np.exp(lt - lt.max())
    return w / w.sum()


def _csv(text: str) -> list[list[str]]:
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows[1:]


def _q_close(q: float, q_ref: float, u: float, k: int, mean: float) -> bool:
    """Q against a reference, allowing both routes' rounding.

    Both routes cancel sums of k+1 terms of size about the mean, so besides
    the relative tolerance they may differ by the naive-summation bound
    (k+1) eps (1 + mean), here with a margin of 8.
    """
    floor = 8.0 * (k + 1) * EPS * (1.0 + mean)
    return abs(q - q_ref) <= Q_TOL * max(abs(q_ref), 1e-3 * (1.0 + u)) + floor


def _check_probs(p, text) -> bool:
    rows = _csv(text)
    k = p["k"]
    zs = _grid(p["z_grid"])
    if len(rows) != len(zs) * (k + 1):
        return False
    probs = np.array([float(r[2]) for r in rows]).reshape(len(zs), k + 1)
    for r, row in zip(zs, probs):
        ref = ref_pmf(p["sequence"], k, float(r) ** 2)
        if abs(row.sum() - 1.0) > 1e-12 * (k + 1):
            return False
        if np.any(np.abs(row - ref) > PROBS_TOL * ref + 1e-15):
            return False
    return True


def _check_mandel(p, text) -> bool:
    rows = _csv(text)
    zs = [float(r) for r in _grid(p["z_grid"]) if r != 0]
    sweep = p.get("param_sweep")
    pvals = _grid(sweep) if sweep else [math.nan]
    if len(rows) != len(zs) * len(pvals):
        return False
    for row in rows:
        param, r, q = (float(x) for x in row)
        seq = dict(p["sequence"])
        if sweep:
            seq[sweep["name"]] = param
        q_ref = tg.statistics.mandel_q_closed_form(
            tg.gseq.GSequence.from_json(seq), p["k"], r * r)
        if not _q_close(q, q_ref, r * r, p["k"], p["k"]):
            return False
    return True


def _check_corr(p, text) -> bool:
    rows = _csv(text)
    zs = [float(r) for r in _grid(p["z_grid"]) if r != 0]
    if len(rows) != len(zs):
        return False
    n = np.arange(p["k"] + 1, dtype=float)
    for row in rows:
        r, g2 = float(row[0]), float(row[1])
        pmf = ref_pmf(p["sequence"], p["k"], r * r)
        mean = float(np.dot(n, pmf))
        ref = float(np.dot(n * (n - 1.0), pmf)) / (mean * mean)
        if abs(g2 - ref) > G2_TOL * max(abs(ref), 1.0):
            return False
    return True


def _check_zeros(p, text) -> str:
    rows = _csv(text)
    k = p["k"]
    if len(rows) != k:
        return WRONG
    roots = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    reported = np.array([float(r[2]) for r in rows])
    # recompute the scaled residual from the reference coefficients
    log_g = ref_log_g(p["sequence"], np.arange(k + 1))
    log_s = (log_g[k] - log_g[0]) / k
    log_c = np.arange(k + 1) * log_s - log_g
    c = np.exp(log_c - log_c.max())
    y = roots / math.exp(log_s)
    recomputed = np.abs(np.polyval(c[::-1], y)) / c.max()
    if np.any((reported <= ROOT_TOL) & (recomputed > 1e3 * ROOT_TOL)):
        return WRONG
    return PASS if np.all(reported <= ROOT_TOL) else MISS


def _check_closed_form(p, qs) -> bool:
    seq = tg.gseq.GSequence.from_json(p["sequence"])
    for r, q in zip(_grid(p["z_grid"]), qs):
        q_ref = tg.statistics.mandel_q(
            tg.states.StateSpec(seq, p["k"], complex(float(r)))).q
        if not _q_close(q, q_ref, float(r) ** 2, p["k"], p["k"]):
            return False
    return True


def _check_bundle(p, out) -> bool:
    probs, u = out["probs"], abs(complex(p["re"], p["im"])) ** 2
    seq = p["seq"]
    if abs(probs.sum() - 1.0) > 1e-12:
        return False
    k_eff = len(probs) - 1
    variant = seq["variant"]
    if variant == "factorial":
        n = np.arange(k_eff + 1)
        poisson = np.exp(n * math.log(u) - u - ref_log_g(seq, n))
        if np.max(np.abs(probs - poisson)) > 1e-12:
            return False
    elif variant in ("ml_gamma", "wright_product") and math.isfinite(out["norm"]):
        # norm is inf where N(u) exceeds the double range, as the series does
        series = _series(seq, u)
        if series is not None and abs(math.log(out["norm"]) - math.log(series)) > LOG_NORM_TOL:
            return False
    # Q against the closed-form series at the effective truncation level
    if k_eff >= 1 and u > 0:
        q_ref = tg.statistics.mandel_q_closed_form(
            tg.gseq.GSequence.from_json(seq), k_eff, u)
        if not _q_close(out["q"], q_ref, u, k_eff, out["mean"]):
            return False
        if abs(out["g2"] - (1.0 + out["q"] / out["mean"])) > G2_TOL * max(out["g2"], 1.0):
            return False
    return _check_sample(out)


def _check_sample(out) -> bool:
    counts = out["counts"]
    if int(counts.sum()) != SAMPLE_DRAWS:
        return False
    if int(counts[2:].sum()) >= JACKKNIFE_MIN_DRAWS:
        return abs(out["q_hat"] - out["q"]) <= SAMPLER_SIGMAS * out["stderr_q"]
    mean = out["mean"]
    var = (out["q"] + 1.0) * mean
    xbar = float(np.dot(np.arange(len(counts)), counts)) / SAMPLE_DRAWS
    return abs(xbar - mean) <= SAMPLER_SIGMAS * math.sqrt(var / SAMPLE_DRAWS) + 1.0 / SAMPLE_DRAWS


def _series(seq: dict[str, Any], u: float) -> float | None:
    """N(u) from specfun's series, or None where it overflows (specfun raises there)."""
    try:
        if seq["variant"] == "ml_gamma":
            return tg.specfun.mittag_leffler(seq["alpha"], seq["beta"], u)
        return tg.specfun.wright(seq["lam"], seq["mu"], u)
    except tg.specfun.SeriesConvergenceError:
        return None


def check(op: Op, output) -> str:
    """PASS, MISS or WRONG for an op's output (see the module docstring)."""
    p = op.params
    if op.kind == "zeros":
        return _check_zeros(p, output[1])
    if op.kind == "verify":
        return PASS if output[0] == 0 else MISS
    if op.kind in ("ml", "wright", "general", "mellin"):
        return PASS if output.passed else MISS
    return PASS if _agrees(op, output) else WRONG


def _agrees(op: Op, output) -> bool:
    p = op.params
    if op.kind in CLI_KINDS:
        return {"probs": _check_probs, "mandel": _check_mandel,
                "corr": _check_corr}[op.kind](p, output[1])
    if op.kind == "bundle":
        return _check_bundle(p, output)
    if op.kind == "closed_form":
        return _check_closed_form(p, output)
    if op.kind == "radial":
        w = tg.completeness.MLWeight(p["alpha"], p["beta"], tg.states.INFINITE)
        target = w.moment_target(p["n"])
        return abs(output - target) <= MOMENT_ROUTE_TOL * target
    if op.kind == "bargmann":
        return abs(output - 1.0) <= 1e-6
    raise ValueError(f"unknown op kind {op.kind!r}")
