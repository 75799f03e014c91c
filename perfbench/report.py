"""Every workload, end to end and traced, in one command.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload with --trace 0 and once with --trace 1, one
after another, and prints each run's report (metrics by name and unit,
sample counts, check results, failures by cause, baseline figures).
Exits non-zero if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run every workload, plain and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    args = ap.parse_args(argv)
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print(f"==== {workload} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                bad += 1
                print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
