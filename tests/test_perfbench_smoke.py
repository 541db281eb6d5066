"""A short traced run of each benchmark workload.

`perfbench/run.py` checks every request's output (the `gram` entries
against the scalar reference path and its PSD certificate, the `train`
artifacts against the Euclidean baseline, the `eval` results against
`kernels.evaluate`) and, traced, the predicted routing of each workload.
A change that fails any of them fails here, before a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["gram", "train", "eval"])
def test_workload_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True, proc.stderr
