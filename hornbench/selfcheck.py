"""Check that the exact work counters repeat between two traced runs.

    python3 hornbench/selfcheck.py --workload spectrum --seed 3 --seconds 5

Runs `run.py --trace 1` twice at one seed and compares every counter that
must repeat exactly (calls, evaluations, shots, rows, slices, points,
errors).  Exits 1 and names the counters that differ, 0 if none do.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import is_exact_count  # noqa: E402


def traced_run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    args = ap.parse_args()
    first, second = traced_run(args), traced_run(args)
    names = [n for n in first if is_exact_count(n)]
    differ = [n for n in names if first[n]["value"] != second[n]["value"]]
    for n in names:
        print(f"{n:36s} {first[n]['value']:>14.6g} {second[n]['value']:>14.6g}"
              f"{'  DIFFERS' if n in differ else ''}")
    print(f"{len(names) - len(differ)} of {len(names)} counters repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
