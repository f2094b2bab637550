"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q tgcsbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402


def _dump(ops):
    return json.dumps([[op.kind, op.params] for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_op_list_repeats_per_seed_and_differs_across_seeds(workload):
    assert _dump(W.op_list(workload, 5)) == _dump(W.op_list(workload, 5))
    assert _dump(W.op_list(workload, 5)) != _dump(W.op_list(workload, 6))


def test_halton_design_matches_scipy():
    from scipy.stats import qmc

    rng = np.random.default_rng(0)
    shift = np.random.default_rng(0).random(3) / 50
    want = (qmc.Halton(d=3, scramble=False).random(51)[1:] + shift) % 1.0
    assert np.allclose(W._shifted_halton(rng, 50, 3), want, rtol=0, atol=1e-12)


def _first(workload, kind, seed=3):
    ops = W.op_list(workload, seed)
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    return i, ops[i]


def _run_op(op, index, tmp_path):
    ws = W.Workspace(tmp_path)
    if op.kind in W.CLI_KINDS:
        ws.write_config(index, op.params)
    out = W.execute(op, index, ws)
    assert out.status == "ok", out.error
    return out.output


def _perturb_csv(text, column, factor):
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines]
    row = max(range(1, len(rows)), key=lambda r: abs(float(rows[r][column])))
    rows[row][column] = repr(float(rows[row][column]) * factor)
    return "\n".join(",".join(r) for r in rows) + "\n"


@pytest.mark.parametrize("kind,column", [("probs", 2), ("mandel", 2), ("corr", 1)])
def test_perturbed_cli_output_is_wrong(kind, column, tmp_path):
    i, op = _first("surfaces", kind)
    rc, text = _run_op(op, i, tmp_path)
    assert W.check(op, (rc, text)) == W.PASS
    assert W.check(op, (rc, _perturb_csv(text, column, 1.0 + 1e-6))) == W.WRONG


def test_perturbed_api_outputs_are_wrong(tmp_path):
    i, op = _first("surfaces", "closed_form")
    qs = _run_op(op, i, tmp_path)
    assert W.check(op, qs) == W.PASS
    assert W.check(op, qs * (1.0 + 1e-6)) == W.WRONG

    ops = W.op_list("untruncated", 3)
    op = next(op for op in ops if op.params["seq"]["variant"] == "factorial"
              and abs(complex(op.params["re"], op.params["im"])) > 3.0)
    out = _run_op(op, 1, tmp_path)
    assert W.check(op, out) == W.PASS
    probs = out["probs"].copy()
    probs[np.argmax(probs)] *= 1.0 + 1e-9
    assert W.check(op, {**out, "probs": probs / probs.sum()}) == W.WRONG
    assert W.check(op, {**out, "q": out["q"] + 1e-6}) == W.WRONG


def test_pinned_item1_repro_is_a_known_defect_probe():
    pinned = [op for op in W.known_defects("untruncated")
              if op.params["seq"] == W.ITEM1_REPRO["seq"]]
    assert len(pinned) == 1


def test_probe_outcomes_are_reported(tmp_path):
    ops = [op for op in W.op_list("moments", 3) if op.kind == "ml"][:1]
    ws = W.Workspace(tmp_path)
    runner = run.Runner(W, ops, ws)
    runner.warm_up()
    assert runner.probe(W.known_defects("surfaces")[:1] + ops) == ["ok/miss", "ok/pass"]


def test_output_changed_after_warm_up_counts_as_failed(tmp_path):
    ops = [op for op in W.op_list("moments", 3) if op.kind in ("ml", "mellin")][:4]
    ws = W.Workspace(tmp_path)
    W.prepare(ops, ws)
    runner = run.Runner(W, ops, ws)
    runner.warm_up()
    assert runner.run_pass()["failed"] == 0 and not runner.wrong

    real = W.execute

    def perturbed(op, index, ws):
        out = real(op, index, ws)
        if index == 2:
            out.output = dataclasses.replace(out.output, tol=out.output.tol * 2)
        return out

    W.execute = perturbed
    try:
        p = runner.run_pass()
    finally:
        W.execute = real
    assert p["failed"] == 1 and runner.wrong


def test_closed_form_spans_count_only_in_their_layer():
    import spans

    tracer = spans.Tracer()
    for name in ("statistics.mandel_q", "statistics.mandel_q_closed_form",
                 "statistics.mandel_q2_closed_form", "cli.main", "cli.cmd_mandel"):
        tracer.finish(tracer.begin(name))
    m = tracer.layer_metrics(0, len(tracer.start))
    assert m["statistics.closed_form.calls"] == 2
    assert m["statistics.moment_route.calls"] == 1
    assert m["cli.main.calls"] == 1
    for name in tracer.names:
        assert sum(spans.in_layer(name, layer)
                   for layer in [*spans.MODULE_LAYERS, *spans.LAYERS]) == 1, name


def _result(args, cwd):
    proc = subprocess.run([sys.executable, "tgcsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def test_every_benchmark_name_appears_in_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _result(["--workload", w["name"], "--seed", "1", "--seconds", "0.1",
                            "--trace", str(trace)], ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert {n: m["unit"] for n, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "tgcsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result(["--workload", "surfaces", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
