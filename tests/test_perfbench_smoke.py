"""The benchmark's self-test, run as part of the test suite.

``perfbench/selftest.py`` runs every workload at toy size against its pinned
gates, so a library change that breaks the benchmark fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
