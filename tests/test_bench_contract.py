"""The benchmark's own self-tests, run against this checkout.

bench/ patches traced functions by name and reads node fields in its
oracles, so renaming one of them breaks the benchmark; this test makes
that visible in the test suite.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
