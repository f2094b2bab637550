"""Command-line front end: figure-data grids, verification suite, exports.

Exit codes: 0 success, 1 verification failure (or a moment tolerance not
reached), 2 usage/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import completeness, sampler, statistics, zeros
from .gseq import (MAX_TERMS, AuxFunction, Factorial, G1, GSequence, MLGamma, WrightProduct,
                   _is_int, verify_mellin_link)
from .specfun import QuadratureError, _log_label, _shifted_rows
from .states import INFINITE, StateSpec, excitation_distribution, overlap, random_state_spec


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _sequence(obj: Any) -> GSequence:
    try:
        return GSequence.from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: obj is no JSON object
        raise ConfigError(f"bad sequence spec: {exc!r}") from exc


def _count(value: Any, name: str) -> int:
    if _is_int(value) and value >= 0:
        return value
    raise ConfigError(f"{name} must be a nonnegative integer, got {value!r}")


def _k(value: Any):
    return INFINITE if value == "inf" else _count(value, "k (or 'inf')")


def _tol(value: Any) -> float:
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tol: {exc}") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be a finite number > 0, got {value!r}")
    return tol


def _spec(seq: GSequence, k, z: complex) -> StateSpec:
    """The state spec, with a refused one (e.g. a divergent k = inf series) as a config error."""
    try:
        return StateSpec(seq, k, z)
    except ValueError as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc


def _grid(spec: dict[str, Any], name: str) -> np.ndarray:
    try:
        lo, hi, pts = spec["min"], spec["max"], _count(spec["points"], "points")
        # bool is an int subclass, and float() reads strings too
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (lo, hi)):
            raise TypeError(f"min and max must be numbers, got {lo!r} and {hi!r}")
        lo, hi, scale = float(lo), float(hi), spec.get("scale", "linear")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} grid: {exc}") from exc
    if not 1 <= pts < MAX_TERMS:
        raise ConfigError(f"{name} grid must have 1 to {MAX_TERMS - 1} points, got {pts}")
    if not math.isfinite(hi - lo):  # an inf or NaN bound, or a span linspace overflows
        raise ConfigError(f"{name} grid bounds and their span must be finite, got {lo} and {hi}")
    if scale == "linear":
        return np.linspace(lo, hi, pts)
    if scale == "log":
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"log-scaled {name} grid requires min > 0 and max > 0")
        return np.geomspace(lo, hi, pts)
    raise ConfigError(f"unknown grid scale {scale!r}")


def _label_rows(seq: GSequence, k, zgrid: np.ndarray):
    """specfun._shifted_rows at ln u = ln |z|^2 of each label, from n = 0 to the level
    of the spec at the largest label (StateSpec._span, which at k = inf serves every
    smaller label too); what that spec refuses, the grid does."""
    spec = _spec(seq, k, complex(zgrid[np.argmax(np.abs(zgrid))]))
    log_u = [_log_label(abs(r) ** 2) for r in zgrid.tolist()]
    return _shifted_rows(seq.log_g_array(np.arange(spec._span[1] + 1)), 0, log_u)


def _label_moments(seq: GSequence, k, zgrid: np.ndarray, falling: bool):
    """Labels with a nonzero mean count (Q and g2 divide by it) and their moments."""
    if k == 0:
        raise ConfigError("Q and g2 require k >= 1: at k = 0 the mean count is 0")
    mean, m = (np.concatenate(x) for x in zip(*(
        statistics._moments(w / total, falling)
        for _, w, total in _label_rows(seq, k, zgrid))))
    keep = mean > 0
    return zgrid[keep].tolist(), mean[keep], m[keep]


def _csv_cell(value: Any) -> str:
    """A cell as the csv module writes it: str(value), quoted when it holds , " CR or LF."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value: Any) -> Any:
    """A cell as strict JSON holds it: None (null) for a non-finite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


def _write_rows(fieldnames: Sequence[str], runs: Iterable[tuple[tuple, Iterable[tuple]]],
                out: str | None, fmt: str) -> None:
    """Write a table as CSV (as csv.writer writes it) or as a JSON list of records.

    The table comes in runs (lead, rows): every row of a run starts with the
    cells of `lead`, which may be text, and goes on with the cells of one
    tuple of `rows`, numbers only, at least one. A lead cell is formatted once
    per run, every other cell once. JSON is strict: a non-finite float is null.
    """
    if fmt == "json":
        records = [dict(zip(fieldnames, map(_json_cell, lead + row)))
                   for lead, rows in runs for row in rows]
        _write(json.dumps(records, indent=2) + "\n", out)
        return
    parts = [",".join(map(_csv_cell, fieldnames)), "\r\n"]
    for lead, rows in runs:
        prefix = "".join([_csv_cell(c) + "," for c in lead])
        line = ",".join(["%s"] * (len(fieldnames) - len(lead))) + "\r\n"
        parts += map(prefix.__add__, map(line.__mod__, rows))
    _write("".join(parts), out)


def cmd_probs(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    seq = _sequence(cfg.get("sequence"))
    k = _k(cfg.get("k"))
    if k == INFINITE:
        raise ConfigError("probs requires a finite k")
    zgrid = _grid(cfg["z_grid"], "z")
    n_range = cfg.get("n_range", [0, k])
    if not (isinstance(n_range, list) and len(n_range) == 2):
        raise ConfigError(f"n_range must be a pair [lo, hi], got {n_range!r}")
    n_lo, n_hi = (_count(n, "n_range") for n in n_range)
    if not n_lo <= n_hi <= k:
        raise ConfigError(f"n_range must satisfy 0 <= lo <= hi <= k = {k}, got {n_range}")
    probs = np.concatenate([w / total for _, w, total in _label_rows(seq, k, zgrid)])
    probs = probs[:, n_lo:n_hi + 1]
    runs = [((r,), enumerate(row, n_lo)) for r, row in zip(zgrid.tolist(), probs.tolist())]
    _write_rows(["abs_z", "n", "p"], runs, out, fmt)
    return 0


def cmd_mandel(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    k = _k(cfg.get("k"))
    zgrid = _grid(cfg["z_grid"], "z")
    base = cfg.get("sequence")
    sweep = cfg.get("param_sweep")
    if sweep:
        names = [f.name for f in fields(_sequence(base))]
        if not isinstance(sweep, dict) or sweep.get("name") not in names:
            raise ConfigError(f"param_sweep must name one of {names}, got {sweep!r}")
        params = [(float(p), {**base, sweep["name"]: float(p)})
                  for p in _grid(sweep, "parameter")]
    else:
        params = [(math.nan, base)]
    runs = []
    for pval, seq_cfg in params:
        labels, mean, m2 = _label_moments(_sequence(seq_cfg), k, zgrid, False)
        runs.append(((pval,), zip(labels, statistics._q(mean, m2).tolist())))
    _write_rows(["param", "abs_z", "q"], runs, out, fmt)
    return 0


def cmd_corr(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    seq = _sequence(cfg.get("sequence"))
    k = _k(cfg.get("k"))
    zgrid = _grid(cfg["z_grid"], "z")
    labels, mean, fact2 = _label_moments(seq, k, zgrid, True)
    _write_rows(["abs_z", "g2"], [((), zip(labels, (fact2 / (mean * mean)).tolist()))],
                out, fmt)
    return 0


def cmd_zeros(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    seq = _sequence(cfg.get("sequence"))
    k = _k(cfg.get("k"))
    if k == INFINITE or k < 1:
        raise ConfigError("zeros requires a finite k >= 1")
    try:
        rs = zeros.polynomial_roots(seq, k)
    except (IndexError, zeros.RootFindingError) as exc:
        raise ConfigError(f"bad degree: {exc}") from exc
    _write_rows(["re", "im", "residual"],
                [((), zip(rs.roots.real, rs.roots.imag, rs.residuals))], out, fmt)
    return 0


_WEIGHT_BUILDERS = {
    "canonical_truncated": lambda w, k: completeness.CanonicalTruncatedWeight(k=k),
    "ml": lambda w, k: completeness.MLWeight(alpha=w["alpha"], beta=w["beta"], k=k),
    "wright": lambda w, k: completeness.WrightWeight(lam=w["lam"], mu=w["mu"], k=k),
    "general": lambda w, k: _general_weight(
        AuxFunction(**{f.name: w[f.name] for f in fields(AuxFunction) if f.name in w}), k),
}


def _general_weight(f: AuxFunction, k) -> completeness.GeneralWeight:
    return completeness.GeneralWeight(f=f, seq=f.matching_sequence(), k=k)


def cmd_moments(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    wcfg = cfg.get("weight")
    if not isinstance(wcfg, dict) or "kind" not in wcfg:
        raise ConfigError("moments requires a weight object with a 'kind'")
    kind = wcfg["kind"]
    if kind not in _WEIGHT_BUILDERS:
        raise ConfigError(f"unknown weight kind {kind!r}")
    k = _k(wcfg.get("k", "inf"))
    try:
        weight = _WEIGHT_BUILDERS[kind](wcfg, k)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad weight parameters: {exc}") from exc
    tol = _tol(cfg.get("tol", 1e-6))
    n_max = _count(wcfg.get("n_max", 4), "n_max")
    if n_max > k:
        raise ConfigError(f"n_max = {n_max} exceeds the truncation level k = {k}")
    try:
        report = completeness.moment_check(weight, n_max, tol)
    except QuadratureError as exc:
        print(f"moments: tol {tol:g} not reached: {exc}", file=sys.stderr)
        return 1
    rows = [(r.n, r.target, r.value, r.residual) for r in report.rows]
    _write_rows(["kind", "n", "target", "value", "residual"],
                [((report.rows[0].kind,), rows)], out, fmt)  # one weight, one kind
    return 0


def cmd_sample(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    seq = _sequence(cfg.get("sequence"))
    k = _k(cfg.get("k"))
    z = cfg.get("z", {"re": 1.0, "im": 0.0})
    try:
        z = complex(z["re"], z["im"])
    except TypeError as exc:
        raise ConfigError(f"z must be an object with numbers re and im: {exc}") from exc
    n_samples = _count(cfg.get("n_samples"), "n_samples")
    if not 1 <= n_samples <= sampler.MAX_SAMPLES:
        raise ConfigError(f"sample requires an integer n_samples in [1, {sampler.MAX_SAMPLES}], "
                          f"got {n_samples}")
    seed = _count(cfg.get("seed", 0), "seed")
    dist = excitation_distribution(_spec(seq, k, z))
    run = sampler.sample_counts(dist, n_samples, seed)
    if fmt == "json":
        _write(json.dumps(run.to_json(), indent=2) + "\n", out)
    else:
        _write_rows(["n", "count"], [((), enumerate(run.counts.tolist()))], out, fmt)
    return 0


def run_verification_suite(tol_override: float | None = None) -> tuple[list[dict], bool]:
    """The consolidated cross-module check battery behind `tgcs verify`."""
    checks: list[dict] = []

    def record(name: str, residual: float, tol: float) -> None:
        checks.append({"check": name, "residual": residual, "tol": tol,
                       "passed": residual <= tol})

    def tol(default: float) -> float:
        return tol_override if tol_override is not None else default

    # completeness moments (cancelled integrands)
    for weight, n_max, t in [
        (completeness.MLWeight(1.0, 1.0, INFINITE), 4, 1e-8),
        (completeness.MLWeight(2.0, 1.0, 5), 4, 1e-8),
        (completeness.GeneralWeight(AuxFunction(1.0, 2.0, 1.0),
                                    G1(1.0, 2.0, 1.0), INFINITE), 4, 1e-6),
        (completeness.WrightWeight(1.0, 1.0, 4), 2, 1e-6),
    ]:
        try:
            report = completeness.moment_check(weight, n_max, tol(t))
            residual = report.max_residual
        except QuadratureError:
            residual = math.inf  # unattainable tolerance: count as a failure
        record(f"moments:{weight.label()}", residual, tol(t))

    # Mellin links g(n) = f^(n+1)
    for f, seq, name in [
        (AuxFunction(0.0, 1.0, 1.0), Factorial(), "factorial"),
        (AuxFunction(1.5, 0.8, 1.3), G1(1.5, 0.8, 1.3), "g1"),
    ]:
        rep = verify_mellin_link(f, seq, 8, tol(1e-6))
        record(f"mellin-link:{name}", rep.max_residual, tol(1e-6))

    # polynomial roots and orthogonal pairs
    for seq in [Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5)]:
        rs = zeros.polynomial_roots(seq, 10)
        record(f"roots:{seq.variant}", float(np.max(rs.residuals)),
               tol(1e-9))
        a, b = zeros.orthogonal_pair(seq, 10, rs.roots[0], 1.0 + 0.0j)
        record(f"orthogonality:{seq.variant}",
               abs(overlap(a, b)), tol(1e-10))

    # Q: moment route vs closed forms
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(20):
        spec = random_state_spec(rng, k_max=15, z_max=5.0, allow_infinite=False)
        if spec.z == 0 or spec.k < 1:
            continue
        q_m = statistics.mandel_q(spec).q
        q_c = statistics.mandel_q_closed_form(spec.seq, spec.k, spec.u)
        # both routes share a ~1e-16*(1+u) absolute cancellation floor; when
        # |Q| itself sits near that floor, compare against the floor instead
        worst = max(worst, abs(q_m - q_c) / max(abs(q_c), 1e-3 * (1.0 + spec.u)))
    record("q-cross-form", worst, tol(1e-10))

    # sampler agreement on a fixed-seed run
    spec = StateSpec(Factorial(), 50, 1.0 + 0.0j)
    q_true = statistics.mandel_q(spec).q
    run = sampler.sample_counts(excitation_distribution(spec), 1_000_000, seed=7)
    # in units of 4 standard errors, not a residual: a tol override leaves it
    dev = abs(run.q_hat - q_true) / (4.0 * run.stderr_q)
    record("sampler-agreement", dev, 1.0)

    return checks, all(c["passed"] for c in checks)


def cmd_verify(cfg: dict[str, Any], out: str | None, fmt: str) -> int:
    tol_override = None if cfg.get("tol") is None else _tol(cfg["tol"])
    checks, ok = run_verification_suite(tol_override)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['check']}: residual {c['residual']:.3e} "
              f"(tol {c['tol']:.1e})")
    if out:
        _write_rows(["check", "residual", "tol", "passed"],
                    [((c["check"],), [(c["residual"], c["tol"], c["passed"])]) for c in checks],
                    out, fmt)
    return 0 if ok else 1


_COMMANDS = {"probs": cmd_probs, "mandel": cmd_mandel, "corr": cmd_corr,
             "verify": cmd_verify, "zeros": cmd_zeros, "moments": cmd_moments,
             "sample": cmd_sample}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tgcs",
                                     description="Truncated generalized coherent states toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"),
                       help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        if name == "sample":
            p.add_argument("--seed", type=int, default=None, help="PRNG seed override")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        return _COMMANDS[args.command](cfg, args.out, args.format)
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
