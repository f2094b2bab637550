#!/usr/bin/env python3
"""Regenerate the four reference data grids (probability and Mandel-Q surfaces).

Writes eight CSV files under the chosen output directory, one probability
surface and one Q surface per configuration:

  ml k=10 alpha=beta=1/2      ml k=20 alpha=beta=1/10
  wright k=10 lam=mu=1/2      wright k=20 lam=mu=1/10

Everything goes through the CLI so these files exercise the same code path a
shell user would hit.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from tgcs.cli import main as tgcs_main

CONFIGS = [
    ("ml_k10_half", {"variant": "ml_gamma", "alpha": 0.5, "beta": 0.5}, 10),
    ("ml_k20_tenth", {"variant": "ml_gamma", "alpha": 0.1, "beta": 0.1}, 20),
    ("wright_k10_half", {"variant": "wright_product", "lam": 0.5, "mu": 0.5}, 10),
    ("wright_k20_tenth", {"variant": "wright_product", "lam": 0.1, "mu": 0.1}, 20),
]


def run(outdir: Path, points: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, seq, k in CONFIGS:
            probs_cfg = Path(tmp) / f"{name}_probs.json"
            probs_cfg.write_text(json.dumps({
                "sequence": seq, "k": k,
                "z_grid": {"min": 0.0, "max": 10.0, "points": points}}))
            rc = tgcs_main(["probs", "--config", str(probs_cfg),
                            "--out", str(outdir / f"{name}_probs.csv")])
            if rc != 0:
                sys.exit(rc)

            mandel_cfg = Path(tmp) / f"{name}_mandel.json"
            mandel_cfg.write_text(json.dumps({
                "sequence": seq, "k": k,
                "z_grid": {"min": 0.01, "max": 10.0, "points": points,
                           "scale": "log"}}))
            rc = tgcs_main(["mandel", "--config", str(mandel_cfg),
                            "--out", str(outdir / f"{name}_mandel.csv")])
            if rc != 0:
                sys.exit(rc)
            print(f"wrote {name}_probs.csv and {name}_mandel.csv")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figure_data"))
    parser.add_argument("--points", type=int, default=41,
                        help="number of |z| grid points per surface")
    args = parser.parse_args()
    run(args.outdir, args.points)
