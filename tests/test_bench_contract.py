"""The benchmark's self-tests, run as part of the suite.

bench/selftest.py drives every workload on tiny inputs through the
library functions, CLI tables and options the benchmark calls, so a
change that breaks one of them fails here rather than only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
