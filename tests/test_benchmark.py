"""The benchmark's self-test, ``benchmark/selftest.py``, as a tier-1 test.

It feeds the benchmark's checks a sound report of each workload and
corruptions of it, through the engine API those checks read
(``SmcConfig(initial_pool=...)``, ``PolicySmcReport.selections`` and
``selection_counts``, ``dataclasses.replace`` on reports), so a source
change that breaks the checks or that API fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    out = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "33/33 cases as expected" in out.stdout
