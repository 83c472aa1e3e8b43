"""The benchmark's traced run, one second per workload.

A traced run checks the exact counter formulas on every operation of a real
workload (``C(d,2)`` bit probes and at most ``2d`` per query for the
activation-only engine; ``1+k+C(k,2)`` pushes, ``C(k,2)`` pair queries and at
most ``1+2d`` oracle queries per query for the fully dynamic one), and it
reports a failure when a name the benchmark drives no longer works. The run
uses a copy of ``perfbench/`` and ``src/`` in a temporary directory, since
``run.py`` reads the sources beside its own directory and writes its span
files (megabytes per second of traced run) there, not into the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_checks_every_operation(workload, tmp_path):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
