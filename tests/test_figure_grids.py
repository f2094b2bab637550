"""scripts/figure_grids.py: the eight reference CSVs against the one-row route."""

import csv
import importlib.util
import io
import math
from pathlib import Path

import numpy as np

from tgcs.gseq import GSequence
from tgcs.states import StateSpec, excitation_distribution
from tgcs.statistics import mandel_q

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "figure_grids.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("figure_grids", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_bytes(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_writes_the_one_row_route_byte_for_byte(tmp_path, capsys):
    figure_grids = _load_script()
    points = 9
    figure_grids.run(tmp_path, points)
    assert len(list(tmp_path.iterdir())) == 2 * len(figure_grids.CONFIGS) == 8
    for name, seq_cfg, k in figure_grids.CONFIGS:
        seq = GSequence.from_json(seq_cfg)
        specs = [(float(r), StateSpec(seq, k, complex(r)))
                 for r in np.linspace(0.0, 10.0, points)]
        probs = [{"abs_z": r, "n": n, "p": float(p)} for r, s in specs
                 for n, p in enumerate(excitation_distribution(s).probs)]
        assert (tmp_path / f"{name}_probs.csv").read_bytes() == _csv_bytes(
            ["abs_z", "n", "p"], probs)
        q = [{"param": math.nan, "abs_z": float(r),
              "q": mandel_q(StateSpec(seq, k, complex(r))).q}
             for r in np.geomspace(0.01, 10.0, points)]
        assert (tmp_path / f"{name}_mandel.csv").read_bytes() == _csv_bytes(
            ["param", "abs_z", "q"], q)
    assert capsys.readouterr().out.count("wrote ") == 4
