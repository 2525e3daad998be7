"""One short pass of the pipeline benchmark per workload, so that a change
breaking its equivalence, oracle or digest checks fails the test suite."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_one_pass(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_depth_sweep_pass_is_correct():
    _run_one_pass("depth_sweep")


def test_verify_heavy_pass_is_correct():
    # the only workload that runs random_equiv at 2^62 - 57 with its checks
    _run_one_pass("verify_heavy")
