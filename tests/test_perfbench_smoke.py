"""The benchmark's self-test, run as part of the test suite.

``perfbench/selftest.py`` runs every workload at toy size against its pinned
gates, so a library change that breaks the benchmark fails here first.  It
runs on a copy of the checkout's ``src/``, ``perfbench/`` and
``BENCHMARK.json``, because its runs write records under
``perfbench/results/``, and a test run must leave the checkout as it found it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(tmp_path):
    skip = shutil.ignore_patterns("results", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
