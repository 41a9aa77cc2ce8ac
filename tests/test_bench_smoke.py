"""The benchmark's own checker, run as a test.

``bench/smoke_check.py`` runs one block of each workload against the
benchmark's independent references and checks that a wrong reference is
caught.  A change to the report path that the benchmark would count as
incorrect fails here first.  It writes only the ignored ``.bench_work/``
and ``.bench_trace/`` directories of the checkout.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, "bench/smoke_check.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke check passed" in done.stdout
