"""The benchmark's own tests, run with the package's: the counts that
`perfbench/selftest.py` pins (the `interval_inverse` calls of `scan`, the
anchor query's compares, the layer map of every workload) are checked on
every run of the suite, not only by hand."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
