"""The benchmark's measuring child (`perfbench/child.py`) calls and wraps
the library's group, evaluator and search API; these runs check that it
still completes every job mode on the library in this tree."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def run_child(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(CHILD), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["blocks4x3-m3", "ex2-m4", "ex2-m4-w2",
                                      "rc4x4-m4-cd"])
def test_setup_job(workload):
    code, out = run_child("--workload", workload, "--mode", "setup",
                          "--search-seed", "0")
    assert (code, out["errors"]) == (0, [])


def test_trace_job():
    code, out = run_child("--workload", "ex2-m4", "--mode", "trace",
                          "--search-seed", "0")
    assert (code, out["errors"]) == (0, [])
