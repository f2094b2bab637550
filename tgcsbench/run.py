"""tgcs benchmark: one workload, end to end (--trace 0) or per layer (--trace 1).

Usage, from the repository root:

    python3 tgcsbench/run.py --workload surfaces --seed 1 --seconds 20 --trace 0

A run
1. times `setup_s`: fresh interpreters, each importing tgcs and running the
   workload's first op cold (cold.py); with --trace 1 the same processes run
   under `-X importtime` for the setup.* metrics instead;
2. builds the workload's op list from the seed and runs it once as warm-up,
   checking every op's output against an independent route (workloads.py);
3. repeats the op list for --seconds seconds, checking that every op repeats
   its warm-up outcome and output, and times each op.  With --trace 1 the
   first half runs untraced and the second half traced (spans.py);
4. runs the workload's known-defect probes once, checked the same way.

Times are reported at reference speed.  The shared machine runs the same code
at speeds up to 1.8 times apart, in states that last from seconds to minutes,
so between ops (every CALIB_EVERY_S of op time) the run also times a fixed
reference kernel that calls nothing in tgcs.  Each op's time is scaled by
REF_NOMINAL_S over the median kernel time within SCALE_WINDOW_S of it, and
the cold starts by the median slowdown over all passes; the plain wall-clock
figures are printed beside them.

The last line of standard output is the result as one JSON object; the lines
before it give the metrics with their units, sample counts and provenance.
A copy of the result, and with --trace 1 the spans, go to .tgcsbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads: np.roots must not spawn threads

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".tgcsbench"
COLD_RUNS = 7
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 60
CALIB_EVERY_S = 0.01      # op time between two timings of the reference kernel
REF_NOMINAL_S = 3.0e-4    # the kernel's time at reference speed
SCALE_WINDOW_S = 0.25     # kernel timings this close to an op's midpoint scale it


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- speed

_REF_X = [0.001 * i for i in range(64)]


def reference_kernel() -> float:
    """Seconds one fixed mix of interpreter, libm and small-numpy work takes.

    It calls nothing in tgcs, so its time follows only the machine's speed.
    """
    x = np.array(_REF_X)
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        s += (i * i) % 7
    acc = 0.0
    for i in range(20):
        acc += float(np.sum(np.exp(x * i))) + math.lgamma(i + 1.5)
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """The machine's slowdown against reference speed, from kernel timings."""
    return statistics.median(samples) / REF_NOMINAL_S


def local_speeds(mid: list[float], ref_t: list[float], ref: list[float]) -> list[float]:
    """Each op's slowdown, from the kernel timings within SCALE_WINDOW_S of its midpoint.

    The machine's speed changes within a pass as well, so the kernel timed
    closest to an op tracks it better than the pass's median (on moments the
    pass-to-pass spread of scaled time fell from 0.06 to 0.03).  An op with
    no kernel timing that close takes the nearest one.
    """
    t, r = np.array(ref_t), np.array(ref)
    m = np.array(mid)
    lo = np.searchsorted(t, m - SCALE_WINDOW_S)
    hi = np.searchsorted(t, m + SCALE_WINDOW_S)
    out = []
    for x, a, b in zip(m, lo, hi):
        if a == b:
            a = a - 1 if a == len(t) or (a > 0 and x - t[a - 1] < t[a] - x) else a
            b = a + 1
        out.append(float(np.median(r[a:b])) / REF_NOMINAL_S)
    return out


# ---------------------------------------------------------------- set-up

def _cold(workload: str, extra: list[str]) -> tuple[float, str]:
    """Wall seconds and stderr of one cold-start process."""
    env = dict(os.environ)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, str(HERE / "cold.py"),
                           "--workload", workload],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return wall, proc.stderr


def setup_seconds(workload: str) -> float:
    """Median wall time of COLD_RUNS cold starts."""
    return statistics.median(_cold(workload, [])[0] for _ in range(COLD_RUNS))


def import_times(stderr: str) -> tuple[float, float]:
    """(scipy, tgcs-self) import seconds from `-X importtime` output.

    scipy is the cumulative time of each outermost scipy module, wherever in
    the process it was first imported; tgcs-self is the self time of the
    tgcs modules themselves.
    """
    scipy_us = tgcs_us = 0
    ancestors: list[str] = []
    # the output lists children before their parent, one level deeper, so
    # read it backwards to meet each parent first
    for line in reversed(stderr.splitlines()):
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, depth, top = int(m[1]), int(m[2]), len(m[3]) // 2, m[4].split(".")[0]
        del ancestors[depth:]
        if top == "scipy" and "scipy" not in ancestors:
            scipy_us += cum_us
        if top == "tgcs":
            tgcs_us += self_us
        ancestors.append(top)
    return scipy_us / 1e6, tgcs_us / 1e6


# ---------------------------------------------------------------- passes

class Runner:
    """Runs the op list pass by pass, comparing every execution to the warm-up."""

    def __init__(self, workloads, ops, ws):
        self.w = workloads
        self.ops = ops
        self.ws = ws
        self.reference: list[tuple[str, str | None, str]] = []
        self.wrong: list[str] = []

    @staticmethod
    def _digest(output) -> str | None:
        if output is None:
            return None
        return hashlib.sha256(pickle.dumps(output, protocol=5)).hexdigest()

    def _checked(self, op, index: int, label: str) -> tuple[str, str | None, str]:
        out = self.w.execute(op, index, self.ws)
        verdict = ""
        if out.status == "ok":
            verdict = self.w.check(op, out.output)
            if verdict == self.w.WRONG:
                self.wrong.append(f"{label} {index} {op.kind}: output contradicts its check")
        return out.status, self._digest(out.output), verdict

    def warm_up(self) -> None:
        for i, op in enumerate(self.ops):
            self.reference.append(self._checked(op, i, "op"))

    def probe(self, probes) -> list[str]:
        """Each known-defect probe's outcome: ok/pass, ok/miss, failed, ..."""
        outcomes = []
        self.w.prepare(probes, self.ws, len(self.ops))
        for j, op in enumerate(probes):
            status, _, verdict = self._checked(op, len(self.ops) + j, "probe")
            outcomes.append(status + (f"/{verdict}" if verdict else ""))
        return outcomes

    def run_pass(self, tracer=None) -> dict:
        lat, mid, ref, ref_t, failed, refused, warned = [], [], [], [], 0, 0, 0
        since = CALIB_EVERY_S
        for i, op in enumerate(self.ops):
            if since >= CALIB_EVERY_S:
                ref_t.append(time.perf_counter())
                ref.append(reference_kernel())
                since = 0.0
            if tracer is not None:
                tracer.op_id = i
                root = tracer.begin(f"op.{op.kind}")
            t_op = time.perf_counter()
            out = self.w.execute(op, i, self.ws)
            if tracer is not None:
                tracer.finish(root)
            lat.append(out.latency_s)
            mid.append(t_op + out.latency_s / 2)
            since += out.latency_s
            warned += out.warnings
            status, digest, verdict = self.reference[i]
            if out.status != status or self._digest(out.output) != digest:
                self.wrong.append(f"op {i} {op.kind}: differs from its warm-up run")
                failed += 1
            elif status == "refused":
                refused += 1
            elif status == "failed" or verdict != self.w.PASS:
                failed += 1
        return {"latencies": lat, "failed": failed, "refused": refused,
                "warnings": warned, "slow": speed(ref),
                "op_slow": local_speeds(mid, ref_t, ref)}

    def run_for(self, seconds: float, tracer=None) -> list[dict]:
        """Whole passes until `seconds` of wall time have gone, at least one."""
        passes = []
        t_end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < t_end:
            first = len(tracer.start) if tracer is not None else 0
            counts = dict(tracer.counts) if tracer is not None else {}
            p = self.run_pass(tracer)
            if tracer is not None:
                p["layers"] = {name: v / p["slow"] if name.endswith("self_s") else v
                               for name, v in tracer.layer_metrics(first, len(tracer.start)).items()}
                p["counts"] = {k: v - counts[k] for k, v in tracer.counts.items()}
            passes.append(p)
        return passes


def op_latencies(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each op's latency: its median over the passes, in seconds.

    The median is the same estimate whatever number of passes a run fits,
    and it keeps a cost that the program incurs in most passes.  Scaled
    latencies are at reference speed; unscaled ones are wall time.
    """
    per_pass = ([t / s for t, s in zip(p["latencies"], p["op_slow"])] if scaled
                else p["latencies"] for p in passes)
    return [statistics.median(lat) for lat in zip(*per_pass)]


def rate(passes: list[dict], scaled: bool = True) -> float:
    """Ops completed per second of op time in a typical pass.

    Each op counts with its median latency over the passes, so a pass slowed
    as a whole (a burst of load on the machine) does not weigh in.
    """
    lat = op_latencies(passes, scaled)
    return len(lat) / sum(lat)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- reporting

def provenance(args, n_ops: int, n_passes: int) -> dict:
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for f in sorted((SRC / "tgcs").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "tgcs_source_sha256": src.hexdigest(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops_per_pass": n_ops, "passes": n_passes,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def emit(metrics: dict[str, tuple[float, str]], notes: dict[str, str], prov: dict,
         correct: bool, attempted: int, failed: int, extra: dict,
         printed_only: tuple[str, ...]) -> None:
    """Print every metric with its unit, then the result line.

    The result line carries the metrics of the run's mode; `printed_only`
    names metrics shown above it but kept out of it.
    """
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:>14.6g} {unit}{note}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()
                          if n not in printed_only}}
    OUT.mkdir(exist_ok=True)
    name = f"{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}"
    (OUT / f"{name}.json").write_text(json.dumps(
        {**result, "provenance": prov, **extra}, indent=1, sort_keys=True))
    print(json.dumps(result))


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tgcs" / "__init__.py").is_file():
        print(f"tgcs sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if args.trace == 0:
        setup_wall = setup_seconds(args.workload)
        metrics["setup_s"] = (setup_wall, "s")  # scaled below
    else:
        cold = [import_times(_cold(args.workload, ["-X", "importtime"])[1])
                for _ in range(IMPORTTIME_RUNS)]
        metrics["setup.import_scipy_s"] = (statistics.median(c[0] for c in cold), "s")
        metrics["setup.import_tgcs_self_s"] = (statistics.median(c[1] for c in cold), "s")

    ops = workloads.op_list(args.workload, args.seed)
    ws = workloads.Workspace(OUT / f"work-{os.getpid()}")
    ws.path.mkdir(parents=True)
    try:
        workloads.prepare(ops, ws)
        runner = Runner(workloads, ops, ws)
        runner.warm_up()
        if args.trace == 0:
            passes = runner.run_for(args.seconds)
            tracer = None
        else:
            import spans
            untraced = runner.run_for(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            passes = runner.run_for(args.seconds / 2, tracer)
        # after the timed passes and the RSS reading, so that a probe which
        # starts to pass with a long support does not move peak_rss_mb
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = workloads.known_defects(args.workload)
        probe_outcomes = runner.probe(probes)
    finally:
        shutil.rmtree(ws.path)

    n = len(ops)
    attempted = n * len(passes)
    failed = sum(p["failed"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    lat_ms = [t * 1e3 for t in op_latencies(passes)]
    wall_ms = [t * 1e3 for t in op_latencies(passes, scaled=False)]
    slow = statistics.median(p["slow"] for p in passes)
    if args.trace == 0:
        metrics["setup_s"] = (setup_wall / slow, "s")
        notes["setup_s"] = (f"median of {COLD_RUNS} cold processes; "
                            f"wall {setup_wall:.4g} s")
        metrics["ops_per_s"] = (rate(passes), "1/s")
        metrics["op_p50_ms"] = (percentile(lat_ms, 50), "ms")
        metrics["op_p90_ms"] = (percentile(lat_ms, 90), "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        samples = f"{n} ops, each the median of {len(passes)} passes"
        beyond = sum(1 for t in lat_ms if t > metrics["op_p90_ms"][0])
        notes["ops_per_s"] = (f"{attempted} ops over {len(passes)} passes; "
                              f"wall {rate(passes, scaled=False):.4g} 1/s")
        notes["op_p50_ms"] = f"{samples}; wall {percentile(wall_ms, 50):.4g} ms"
        notes["op_p90_ms"] = (f"{samples}; {beyond} ops beyond; "
                              f"wall {percentile(wall_ms, 90):.4g} ms")
    else:
        first = passes[0]
        for name in first["layers"]:
            if name.endswith(".calls"):
                metrics[name] = (first["layers"][name], "count")
            else:
                metrics[name] = (statistics.median(p["layers"][name] for p in passes), "s")
        c = first["counts"]
        metrics["states.support_terms"] = (c["states.support_terms"], "count")
        metrics["states.useful_frac"] = (
            c["states.useful"] / c["states.support_terms"] if c["states.support_terms"] else 0.0,
            "ratio")
        metrics["completeness.integrand_evals"] = (c["completeness.integrand_evals"], "count")
        metrics["completeness.warnings"] = (first["warnings"], "count")
        metrics["sampler.draws"] = (c["sampler.draws"], "count")
        metrics["trace.overhead_frac"] = (rate(untraced) / rate(passes) - 1.0, "ratio")
        notes["trace.overhead_frac"] = (f"{len(untraced)} untraced and {len(passes)} "
                                        "traced passes")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    metrics["refused_frac"] = (refused / attempted, "ratio")
    for name in ("failed_frac", "refused_frac"):
        notes[name] = f"of {attempted} ops attempted"
    open_defects = [o for o in probe_outcomes if o != "ok/" + workloads.PASS]
    metrics["known_defects.open"] = (len(open_defects), "count")
    notes["known_defects.open"] = (f"of {len(probes)} probes: "
                                   + (", ".join(open_defects) or "none open"))

    prov = provenance(args, n, len(passes))
    prov["slowdown_median"] = slow
    kinds: dict[str, list[float]] = {}
    for op, t in zip(ops, lat_ms):
        kinds.setdefault(op.kind, []).append(t)
    extra = {"wrong": runner.wrong[:50],
             "known_defects": [{"kind": op.kind, "params": op.params, "outcome": o}
                               for op, o in zip(probes, probe_outcomes)],
             "outcomes": [r[0] + ("" if r[2] in ("", workloads.PASS) else "/" + r[2])
                          for r in runner.reference],
             "kind_median_ms": {k: statistics.median(v) for k, v in kinds.items()},
             "ops": [{"kind": op.kind, "params": op.params} for op in ops]}
    # failure and refusal shares and open defects may be 0, so they are
    # per-layer metrics of the traced run rather than bounded end-to-end ones
    printed_only = (("failed_frac", "refused_frac", "known_defects.open")
                    if args.trace == 0 else ())
    emit(metrics, notes, prov, not runner.wrong, attempted, failed, extra, printed_only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
