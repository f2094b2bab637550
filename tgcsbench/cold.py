"""One cold start: a fresh interpreter imports tgcs and runs a workload's first op.

run.py times this whole process from outside; that wall time is `setup_s`.
Usage (from the repository root): python3 tgcsbench/cold.py --workload NAME
Exits 0 when the op ran to an "ok" outcome and 1 otherwise.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args()
    ws = workloads.Workspace(ROOT / ".tgcsbench" / f"cold-{os.getpid()}")
    ws.path.mkdir(parents=True)
    try:
        op = workloads.lead_op(args.workload)
        workloads.prepare([op], ws)
        outcome = workloads.execute(op, 0, ws)
    finally:
        shutil.rmtree(ws.path)
    if outcome.status != "ok":
        print(f"first op {outcome.status}: {outcome.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
