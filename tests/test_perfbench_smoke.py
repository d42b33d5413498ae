"""Each benchmark workload runs traced at smoke size and passes the benchmark's CSV gate.

The tracer reads sparsefl's call arguments and results (local_train's DpConfig,
schedule_round's v_trace), so a change to those records shows up here before
it breaks a benchmark run. Each smoke CSV's SHA-256 is pinned, so a change
that should keep the metrics byte-identical is checked on every run; one that
moves them on purpose updates the pin and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Seed 1, smoke size; tracing does not change the bytes.
SMOKE_CSV_SHA256 = {
    "privacy_hetero": "44c10f7dd5065e7d9e855fb5f1fc15e850bbebea8a246443cb5213c017f78b1b",
    "sched_wide": "8d314fc9ec72bce3bc0358239705f67208cb343491c76f531608051fdf4f4609",
    "train_mlp": "8d5f13f55c7d48c092078ee56dd5a3b0f084b8d72507ec97a1304e5f3d87956a",
}


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
    csv_sha = hashlib.sha256(prefix.with_suffix(".csv").read_bytes()).hexdigest()
    assert csv_sha == SMOKE_CSV_SHA256[workload]
