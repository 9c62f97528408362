"""The benchmark's smoke run passes on the current program.

Runs every perfbench workload at ACCEPT-10 scale in a subprocess (a few
seconds), untraced and traced, so a change to the CLI paths or to the
functions the tracer wraps cannot break the benchmark unnoticed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ("0", "1"))
def test_perfbench_smoke_all_workloads_correct(trace):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--smoke", "--workload", "all", "--trace", trace],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3, proc.stdout
    for result in results:
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout
