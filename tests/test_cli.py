"""CLI subcommands: exit codes, output formats, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tgcs
from tgcs import cli, states
from tgcs.cli import main
from tgcs.completeness import MLWeight, WrightWeight, moment_check
from tgcs.gseq import MAX_TERMS, Factorial, GSequence
from tgcs.sampler import sample_counts
from tgcs.states import INFINITE, StateSpec, excitation_distribution, random_state_spec
from tgcs.statistics import correlation_g2, mandel_q
from tgcs.zeros import polynomial_roots

ML_HALF = {"variant": "ml_gamma", "alpha": 0.5, "beta": 0.5}
# every JSON scalar, as json.load gives it back (NaN and Infinity included)
_JSON_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())


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

    def test_k_past_the_term_budget_is_config_error(self, tmp_path, capsys):
        # this used to end in numpy's MemoryError for 7 TiB, a traceback and exit 1
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 10 ** 12,
            "z_grid": {"min": 0.0, "max": 1.0, "points": 2}})
        assert main(["probs", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


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


def _cli_bytes(tmp_path, command, cfg, fmt="csv"):
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out.csv"
    rc = main([command, "--config", path, "--out", str(out), "--format", fmt])
    return rc, out.read_bytes() if rc == 0 else None


def _csv_bytes(fieldnames, rows):
    """The reference CSV writer: csv.DictWriter over one dict per row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def _json_bytes(payload):
    return (json.dumps(payload, indent=2) + "\n").encode()


def _strict(value):
    """A cell as strict JSON holds it: a non-finite float is null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _table_bytes(fmt, fieldnames, rows):
    if fmt == "csv":
        return _csv_bytes(fieldnames, rows)
    return _json_bytes([{k: _strict(v) for k, v in row.items()} for row in rows])


def _grid(grid):
    if grid.get("scale") == "log":
        return np.geomspace(grid["min"], grid["max"], grid["points"])
    return np.linspace(grid["min"], grid["max"], grid["points"])


class TestGridRoute:
    """The probs/mandel/corr grids, one log-term matrix per grid, against the
    one-row route (a StateSpec per label)."""

    def test_finite_grids_are_the_one_row_route(self, tmp_path):
        rng = np.random.default_rng(2026)
        for _ in range(16):
            spec = random_state_spec(rng, k_max=200, allow_infinite=False)
            zmax = rng.uniform(0.5, 10.0)
            for grid in ({"min": 0.0, "max": zmax, "points": 9},
                         {"min": 0.01, "max": zmax, "points": 9, "scale": "log"}):
                cfg = {"sequence": spec.seq.to_json(), "k": spec.k, "z_grid": grid}
                labels = [(float(r), StateSpec(spec.seq, spec.k, complex(r)))
                          for r in _grid(grid)]
                probs = [{"abs_z": r, "n": n, "p": float(p)} for r, s in labels
                         for n, p in enumerate(excitation_distribution(s).probs)]
                q = [{"param": math.nan, "abs_z": r, "q": mandel_q(s).q}
                     for r, s in labels if r != 0]
                g2 = [{"abs_z": r, "g2": correlation_g2(s)} for r, s in labels if r != 0]
                for fmt in ("csv", "json"):
                    assert _cli_bytes(tmp_path, "probs", cfg, fmt) == (0, _table_bytes(
                        fmt, ["abs_z", "n", "p"], probs))
                    assert _cli_bytes(tmp_path, "mandel", cfg, fmt) == (0, _table_bytes(
                        fmt, ["param", "abs_z", "q"], q))
                    assert _cli_bytes(tmp_path, "corr", cfg, fmt) == (0, _table_bytes(
                        fmt, ["abs_z", "g2"], g2))

    def test_infinite_grids_agree_with_the_one_row_route(self, tmp_path):
        # a k = inf grid sums every label to the level of its largest |z|, the
        # one-row route each label to its own level: Q agrees on the scale of
        # `tgcs verify`, and g2 = 1 + Q/<n> on that scale over <n>
        rng = np.random.default_rng(2027)
        for i in range(16):
            seq = random_state_spec(rng, allow_infinite=False).seq
            zmax = rng.uniform(0.5, 5.0)
            grid = ({"min": 0.0, "max": zmax, "points": 11} if i % 2 else
                    {"min": 0.01, "max": zmax, "points": 11, "scale": "log"})
            cfg = {"sequence": seq.to_json(), "k": "inf", "z_grid": grid}
            (rc_q, q_text), (rc_g2, g2_text) = (_cli_bytes(tmp_path, command, cfg)
                                                for command in ("mandel", "corr"))
            assert rc_q == rc_g2 == 0
            q_rows = list(csv.DictReader(io.StringIO(q_text.decode())))
            g2_rows = list(csv.DictReader(io.StringIO(g2_text.decode())))
            assert len(q_rows) == len(g2_rows) == np.count_nonzero(_grid(grid))
            for qr, gr in zip(q_rows, g2_rows):
                r = float(qr["abs_z"])
                rep = mandel_q(StateSpec(seq, INFINITE, complex(r)))
                scale = 1e-10 * max(abs(rep.q), 1e-3 * (1.0 + r * r))
                assert abs(float(qr["q"]) - rep.q) <= scale
                g2 = correlation_g2(StateSpec(seq, INFINITE, complex(r)))
                assert abs(float(gr["g2"]) - g2) <= scale / rep.mean_n

    @pytest.mark.parametrize("command", ["mandel", "corr"])
    @pytest.mark.parametrize("zmax", [1.0, 3.0, 8.0])
    def test_infinite_grid_computes_ln_g_once(self, tmp_path, monkeypatch, command, zmax):
        # every row of the grid comes from one ln g table, n = 0 to the level of
        # the spec at its largest label; the level search takes the scalar ln g
        seq = {"variant": "ml_gamma", "alpha": 0.5, "beta": 1.0}
        level = states._span(GSequence.from_json(seq), INFINITE, math.log(zmax ** 2))[1]
        evaluated = []
        log_g_array = GSequence.log_g_array
        monkeypatch.setattr(GSequence, "log_g_array",
                            lambda self, n: evaluated.append(n) or log_g_array(self, n))
        cfg = {"sequence": seq, "k": "inf", "z_grid": {"min": 0.0, "max": zmax, "points": 41}}
        assert _cli_bytes(tmp_path, command, cfg)[0] == 0
        assert [n.tolist() for n in evaluated] == [list(range(level + 1))]


@pytest.mark.parametrize("fmt", ["csv", "json"])
class TestOutputBytes:
    """Each subcommand's output against csv.DictWriter or json.dumps over one
    record per row, built from the library calls."""

    def test_probs_n_range(self, tmp_path, fmt):
        rng = np.random.default_rng(2028)
        for _ in range(12):
            spec = random_state_spec(rng, k_max=80, allow_infinite=False)
            k = max(int(spec.k), 1)
            lo = int(rng.integers(1, k + 1))
            hi = int(rng.integers(lo, k + 1))
            grid = {"min": 0.0, "max": float(rng.uniform(0.5, 8.0)), "points": 5}
            cfg = {"sequence": spec.seq.to_json(), "k": k, "z_grid": grid, "n_range": [lo, hi]}
            rows = [{"abs_z": float(r), "n": n, "p": float(p)} for r in _grid(grid)
                    for n, p in enumerate(excitation_distribution(
                        StateSpec(spec.seq, k, complex(r))).probs[lo:hi + 1], lo)]
            assert _cli_bytes(tmp_path, "probs", cfg, fmt) == (
                0, _table_bytes(fmt, ["abs_z", "n", "p"], rows))

    def test_mandel_param_sweep(self, tmp_path, fmt):
        base = {"variant": "wright_product", "lam": 1.0, "mu": 0.5}
        sweep = {"name": "lam", "min": 0.5, "max": 6.0, "points": 4}
        grid = {"min": 0.01, "max": 5.0, "points": 6, "scale": "log"}
        cfg = {"sequence": base, "k": 12, "z_grid": grid, "param_sweep": sweep}
        rows = [{"param": float(lam), "abs_z": float(r), "q": mandel_q(StateSpec(
                    GSequence.from_json({**base, "lam": float(lam)}), 12, complex(r))).q}
                for lam in _grid(sweep) for r in _grid(grid)]
        assert _cli_bytes(tmp_path, "mandel", cfg, fmt) == (
            0, _table_bytes(fmt, ["param", "abs_z", "q"], rows))

    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_zeros(self, tmp_path, fmt, k):
        rs = polynomial_roots(Factorial(), k)
        rows = [{"re": r.real, "im": r.imag, "residual": res}
                for r, res in zip(rs.roots, rs.residuals)]
        assert _cli_bytes(tmp_path, "zeros", {"sequence": {"variant": "factorial"}, "k": k},
                          fmt) == (0, _table_bytes(fmt, ["re", "im", "residual"], rows))

    @pytest.mark.parametrize("wcfg, weight", [
        ({"kind": "ml", "alpha": 1.0, "beta": 1.0, "n_max": 3},
         MLWeight(1.0, 1.0, INFINITE)),
        ({"kind": "wright", "lam": 1.0, "mu": 1.0, "k": 4, "n_max": 2},
         WrightWeight(1.0, 1.0, 4)),
    ])
    def test_moments(self, tmp_path, fmt, wcfg, weight):
        report = moment_check(weight, wcfg["n_max"], 1e-6)
        rows = [{"kind": r.kind, "n": r.n, "target": r.target, "value": r.value,
                 "residual": r.residual} for r in report.rows]
        rc, text = _cli_bytes(tmp_path, "moments", {"weight": wcfg}, fmt)
        assert (rc, text) == (0, _table_bytes(
            fmt, ["kind", "n", "target", "value", "residual"], rows))
        if fmt == "csv":  # the label holds commas
            assert text.splitlines()[1].startswith(f'"{weight.label()}",'.encode())

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 500])
    def test_sample(self, tmp_path, fmt, n_samples):
        spec = StateSpec(Factorial(), 20, 3.0)
        cfg = {"sequence": {"variant": "factorial"}, "k": 20, "z": {"re": 3.0, "im": 0.0},
               "n_samples": n_samples, "seed": 5}
        run = sample_counts(excitation_distribution(spec), n_samples, 5)
        want = (_csv_bytes(["n", "count"], [{"n": n, "count": int(c)}
                                            for n, c in enumerate(run.counts)])
                if fmt == "csv" else _json_bytes(run.to_json()))
        rc, text = _cli_bytes(tmp_path, "sample", cfg, fmt)
        assert (rc, text) == (0, want)
        if fmt == "json":  # strict JSON: no NaN or Infinity
            json.loads(text, parse_constant=pytest.fail)

    def test_verify_out(self, tmp_path, monkeypatch, fmt):
        suite, seen = cli.run_verification_suite, []

        def recorded(tol):
            seen.append(suite(tol))
            return seen[-1]

        monkeypatch.setattr(cli, "run_verification_suite", recorded)
        out = tmp_path / "verify.out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--out", str(out), "--format", fmt]) == 0
        (checks, ok), = seen
        text = out.read_bytes()
        assert text == _table_bytes(fmt, ["check", "residual", "tol", "passed"], checks)
        if fmt == "csv":  # check names such as moments:ml(alpha=1.0,beta=1.0,k=inf)
            assert text.count(b'\r\n"moments:') == 4


_CELL_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters()), max_size=8)


@given(st.lists(_CELL_TEXT, min_size=1, max_size=4), st.lists(_CELL_TEXT, min_size=1, max_size=4),
       st.floats())
@example([""], [""], 0.5)
@example([",", '"'], ["\r", "\n"], math.nan)
def test_text_cells_are_quoted_as_csv_writer_quotes(header, lead, x):
    # a run's lead cells may hold text; header and lead are quoted as csv.writer quotes
    header = (header * 5)[:len(lead) + 1]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerow([*lead, x])
    got = io.StringIO()
    with contextlib.redirect_stdout(got):
        cli._write_rows(header, [(tuple(lead), [(x,)])], None, "csv")
    assert got.getvalue() == buf.getvalue()


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

    def test_double_root_has_no_nan_cell(self, tmp_path, capsys):
        # (1 + z)^2: the Newton polish divided 0 by 0 and printed nan,0.0,nan
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "table", "values": [1.0, 0.5, 1.0]}, "k": 2})
        assert main(["zeros", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "nan" not in text.lower()
        assert len(text.splitlines()) == 3


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

    def test_wright_weight_with_an_underflowing_kratzel_window(self, tmp_path, capsys):
        # Kraetzel rows near ln u = -195 once had a NaN window end, and main let
        # np.repeat's ValueError out as a traceback
        cfg = write_config(tmp_path, "cfg.json", {"weight": {
            "kind": "wright", "lam": 0.09755983397799592, "mu": 0.031049533896327523,
            "n_max": 1}})
        assert main(["moments", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 3

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

    def test_seed_is_a_sample_flag_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z_grid": {"min": 0.0, "max": 1.0, "points": 2}})
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--config", cfg, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        # the override is checked as the config's seed is, not handed to PCG64
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}, "n_samples": 10})
        assert main(["sample", "--config", cfg, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_missing_n_samples_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}})
        assert main(["sample", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value", [("n_samples", True), ("n_samples", 2.5),
                                            ("seed", None), ("seed", 1.5)])
    def test_non_integer_count_or_seed_is_config_error(self, tmp_path, capsys, key, value):
        # the sampler refuses these too; the CLI answers first, without a traceback
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}, "n_samples": 10, key: value})
        assert main(["sample", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sample_count_past_the_budget_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.sampler, "sample_counts", None)  # no draw is made
        cfg = write_config(tmp_path, "cfg.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z": {"re": 0.5, "im": 0.0}, "n_samples": 10 ** 12})
        assert main(["sample", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


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

    def test_tol_leaves_the_sampler_bound(self, tmp_path, capsys):
        # the sampler check's bound is 1 in units of 4 standard errors, not a
        # residual tolerance: a tol override used to fail it below 0.4
        cfg = write_config(tmp_path, "cfg.json", {"tol": 1e-3})
        assert main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out and "sampler-agreement" in out

    def test_json_is_strict(self, tmp_path):
        # mandel without a sweep has no parameter, an unreached tol no residual:
        # both are null, not NaN or Infinity
        mandel = write_config(tmp_path, "mandel.json", {
            "sequence": {"variant": "factorial"}, "k": 5,
            "z_grid": {"min": 0.5, "max": 2.0, "points": 3}})
        verify = write_config(tmp_path, "verify.json", {"tol": 1e-16})
        out = tmp_path / "out.json"
        for argv, rc, key in [(["mandel", "--config", mandel], 0, "param"),
                              (["verify", "--config", verify], 1, "residual")]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out", str(out), "--format", "json"]) == rc
            records = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert None in [r[key] for r in records]

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
        ("mandel", {"sequence": ML_HALF, "k": 0,
                    "z_grid": {"min": 0.5, "max": 1.0, "points": 2}}),
        ("corr", {"sequence": ML_HALF, "k": 0,
                  "z_grid": {"min": 0.5, "max": 1.0, "points": 2}}),
        ("probs", {"sequence": ML_HALF, "k": 4,
                   "z_grid": {"min": 0.0, "max": math.inf, "points": 2}}),
        ("probs", {"sequence": ML_HALF, "k": 4,
                   "z_grid": {"min": math.nan, "max": 1.0, "points": 2}}),
        ("probs", {"sequence": ML_HALF, "k": 4,
                   "z_grid": {"min": 0.5, "max": -1.0, "points": 2, "scale": "log"}}),
        ("mandel", {"sequence": {"variant": "g1", "nu": 1.0, "rho": 1.0, "w": 1.0},
                    "k": 10, "z_grid": {"min": 0.5, "max": 1.0, "points": 2},
                    "param_sweep": {"name": "x", "min": 0.5, "max": 1.0, "points": 3}}),
        # ln g(1) = lgamma(1e306 + 1) overflows: it used to raise inside the row
        ("probs", {"sequence": {"variant": "ml_gamma", "alpha": 1e306, "beta": 1.0}, "k": 1,
                   "z_grid": {"min": 0.0, "max": 1.0, "points": 2}}),
    ], ids=["bad-grid", "negative-n", "n-past-k", "bool-k", "k-past-table",
            "invalid-sweep-value", "divergent-series", "past-term-budget",
            "degree-past-cap", "non-integer-weight-k", "n-max-past-k",
            "negative-weight-alpha", "moments-nan-tol", "moments-negative-tol",
            "verify-nan-tol", "verify-negative-tol", "mandel-k-zero", "corr-k-zero",
            "infinite-grid-max", "nan-grid-min", "log-grid-nonpositive-max",
            "unknown-sweep-name", "overflowing-sequence"])
    def test_bad_config_is_refused(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, "cfg.json", cfg)
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @given(command=st.sampled_from(["probs", "mandel", "corr"]),
           lo=_JSON_SCALAR, hi=_JSON_SCALAR,
           # a valid count is capped at 64 points, for run time
           points=st.one_of(st.integers(max_value=64), st.integers(min_value=MAX_TERMS),
                            _JSON_SCALAR.filter(lambda x: type(x) is not int)),
           scale=st.sampled_from(["linear", "log"]) | _JSON_SCALAR)
    @settings(max_examples=150, deadline=None)
    # a count that is no count: it used to run 2, 1 and 3 points, or end in numpy's
    # _ArrayMemoryError; a bound that is no number; a span past the double range
    @example(command="probs", lo=0.0, hi=1.0, points=2.5, scale="linear")
    @example(command="probs", lo=0.0, hi=1.0, points=True, scale="linear")
    @example(command="probs", lo=0.0, hi=1.0, points="3", scale="linear")
    @example(command="corr", lo=0.0, hi=1.0, points=10 ** 12, scale="linear")
    @example(command="mandel", lo=True, hi=1.0, points=3, scale="linear")
    @example(command="probs", lo=-1e308, hi=1e308, points=3, scale="linear")
    def test_any_json_grid_runs_or_is_refused(self, command, lo, hi, points, scale):
        cfg = {"sequence": ML_HALF, "k": 3,
               "z_grid": {"min": lo, "max": hi, "points": points, "scale": scale}}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), "cfg.json", cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([command, "--config", path])
        assert rc == 0 or (rc == 2 and err.getvalue().startswith("config error: "))
        valid = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (lo, hi))
        if not (valid and isinstance(points, int) and not isinstance(points, bool)
                and 1 <= points < MAX_TERMS and scale in ("linear", "log")):
            assert rc == 2

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_sequence_parameter_is_refused(self, tmp_path, capsys, alpha):
        # json.load reads NaN and Infinity; the sequence refuses them, not the sums
        path = write_config(tmp_path, "cfg.json", {
            "sequence": {**ML_HALF, "alpha": alpha}, "k": 4,
            "z_grid": {"min": 0.0, "max": 1.0, "points": 2}})
        assert main(["probs", "--config", path]) == 2
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
