"""Run every workload once timed and once traced, and print all metrics.

Usage, from the root of a checkout:

    python3 bench/report.py [--seed N] [--seconds S]

Exits 1 if any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"workload {workload['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            print(f"  correct {result['correct']}  attempted {result['attempted']}  "
                  f"failed {result['failed']}\n", flush=True)
            bad += not result["correct"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
