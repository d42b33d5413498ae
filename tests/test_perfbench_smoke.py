"""Each benchmark workload runs traced at smoke size and passes the benchmark's CSV gate.

The tracer reads sparsefl's call arguments and results (local_train's DpConfig,
schedule_round's v_trace), so a change to those records shows up here before
it breaks a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_traced_smoke_workload_passes_the_gate(workload, tmp_path):
    prefix = tmp_path / workload
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "1", str(prefix), "1", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(prefix.with_suffix(".json").read_text())
    csv_text = prefix.with_suffix(".csv").read_text()
    gate = _load("gate")
    assert gate.csv_errors(csv_text, result["d_avg_s"]) == []
    assert gate.privacy_errors(result["participation"], result["t_hats"], result["sigma_hat"]) == []
