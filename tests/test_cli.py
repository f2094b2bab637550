"""CLI subcommands: exit codes, output formats, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgcs
from tgcs.cli import main

ML_HALF = {"variant": "ml_gamma", "alpha": 0.5, "beta": 0.5}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestProbs:
    def test_basic_grid(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": ML_HALF, "k": 4,
            "z_grid": {"min": 0.0, "max": 2.0, "points": 3}})
        out = tmp_path / "probs.csv"
        assert main(["probs", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3 * 5
        # z = 0 row is the Kronecker distribution
        z0 = [r for r in rows if float(r["abs_z"]) == 0.0]
        assert float(z0[0]["p"]) == 1.0
        assert all(float(r["p"]) == 0.0 for r in z0[1:])
        # every |z| column sums to one
        for z in {r["abs_z"] for r in rows}:
            total = sum(float(r["p"]) for r in rows if r["abs_z"] == z)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": ML_HALF, "k": 2,
            "z_grid": {"min": 1.0, "max": 1.0, "points": 1}})
        assert main(["probs", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3

    def test_infinite_k_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": ML_HALF, "k": "inf",
            "z_grid": {"min": 0.0, "max": 1.0, "points": 2}})
        assert main(["probs", "--config", cfg]) == 2


class TestMandel:
    def test_fixed_sequence_grid(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": ML_HALF, "k": 10,
            "z_grid": {"min": 0.01, "max": 10.0, "points": 5, "scale": "log"}})
        out = tmp_path / "q.csv"
        assert main(["mandel", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 5
        # small-label sign for this family is positive (first ratio pi/2 < 2)
        assert float(rows[0]["q"]) > 0

    def test_parameter_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "wright_product", "lam": 1.0, "mu": 0.5},
            "k": 10,
            "z_grid": {"min": 0.01, "max": 0.01, "points": 1},
            "param_sweep": {"name": "lam", "min": 0.5, "max": 6.0, "points": 4}})
        out = tmp_path / "q.csv"
        assert main(["mandel", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r["q"]) < 0 for r in rows)


class TestCorr:
    def test_grid(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": "inf",
            "z_grid": {"min": 0.5, "max": 2.0, "points": 4}})
        out = tmp_path / "g2.csv"
        assert main(["corr", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(float(r["g2"]) == pytest.approx(1.0, abs=1e-9) for r in rows)


class TestZeros:
    def test_factorial_k2(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 2})
        out = tmp_path / "roots.csv"
        assert main(["zeros", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for r in rows:
            assert float(r["re"]) == pytest.approx(-1.0, abs=1e-12)
            assert abs(float(r["im"])) == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_ml_weight(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0, "n_max": 3}})
        out = tmp_path / "m.csv"
        assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(float(r["residual"]) <= 1e-8 for r in rows)
        assert float(rows[3]["target"]) == pytest.approx(math.gamma(4.0))

    def test_unknown_kind_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"weight": {"kind": "nope"}})
        assert main(["moments", "--config", cfg]) == 2

    def test_unattainable_tolerance_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0}, "tol": 1e-20})
        assert main(["moments", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("moments: tol 1e-20 not reached") and err.count("\n") == 1


class TestSample:
    def test_deterministic_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 20,
            "z": {"re": 1.0, "im": 0.0}, "n_samples": 10000, "seed": 42})
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sample", "--config", cfg, "--out", str(out1),
                     "--format", "json"]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out2),
                     "--format", "json"]) == 0
        assert out1.read_text() == out2.read_text()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 20,
            "z": {"re": 1.0, "im": 0.0}, "n_samples": 10000, "seed": 42})
        out = tmp_path / "c.json"
        assert main(["sample", "--config", cfg, "--out", str(out),
                     "--format", "json", "--seed", "7"]) == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_csv_histogram(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}, "n_samples": 1000, "seed": 1})
        out = tmp_path / "h.csv"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert sum(int(r["count"]) for r in rows) == 1000

    def test_missing_n_samples_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}})
        assert main(["sample", "--config", cfg]) == 2


class TestVerifyAndErrors:
    def test_default_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    # the unattainable tolerance fails through QuadratureError, not a warning
    def test_unattainable_tolerance_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"tol": 1e-16})
        assert main(["verify", "--config", cfg]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["probs", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self):
        assert main(["probs", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("command, cfg", [
        ("probs", {"sequence": ML_HALF, "k": 4,
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 0}}),
        ("probs", {"sequence": ML_HALF, "k": 4, "n_range": [-1, 1],
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 2}}),
        ("probs", {"sequence": ML_HALF, "k": 4, "n_range": [0, 5],
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 2}}),
        ("probs", {"sequence": ML_HALF, "k": True,
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 2}}),
        ("probs", {"sequence": {"variant": "table", "values": [1.0, 2.0]}, "k": 4,
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 2}}),
        ("mandel", {"sequence": ML_HALF, "k": 10,
                    "z_grid": {"min": 0.5, "max": 1.0, "points": 2},
                    "param_sweep": {"name": "alpha", "min": 0.0, "max": 1.0,
                                    "points": 3}}),
        ("corr", {"sequence": {"variant": "ml_gamma", "alpha": 0.2236, "beta": 1.32},
                  "k": "inf", "z_grid": {"min": 8.98, "max": 8.98, "points": 1}}),
        ("corr", {"sequence": {"variant": "ml_gamma", "alpha": 0.25, "beta": 1.0},
                  "k": "inf", "z_grid": {"min": 26.9 ** 0.5, "max": 26.9 ** 0.5,
                                         "points": 1}}),
        ("zeros", {"sequence": {"variant": "factorial"}, "k": 101}),
        ("moments", {"weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0, "k": "five"}}),
        ("moments", {"weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0, "k": 2,
                                "n_max": 4}}),
        ("moments", {"weight": {"kind": "ml", "alpha": -1.0, "beta": 1.0}}),
        ("moments", {"weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0}, "tol": "nan"}),
        ("moments", {"weight": {"kind": "ml", "alpha": 1.0, "beta": 1.0}, "tol": -1}),
        ("verify", {"tol": "nan"}),
        ("verify", {"tol": -1}),
    ], ids=["bad-grid", "negative-n", "n-past-k", "bool-k", "k-past-table",
            "invalid-sweep-value", "divergent-series", "past-term-budget",
            "degree-past-cap", "non-integer-weight-k", "n-max-past-k",
            "negative-weight-alpha", "moments-nan-tol", "moments-negative-tol",
            "verify-nan-tol", "verify-negative-tol"])
    def test_bad_config_is_refused(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, "cfg.json", cfg)
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; the package itself must not load it
    src = str(Path(tgcs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tgcs, tgcs.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
