"""Run every workload, untraced and then traced, each in a fresh process.

    python3 perfbench/run_all.py [--seed 1] [--seconds 26]

Prints each run's output (every metric by name with its unit) and exits
non-zero unless every run finished and passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCHMARK, HERE, ROOT


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"## {workload} trace {trace}", flush=True)
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
