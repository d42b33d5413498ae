"""Run one benchmark experiment in this interpreter and write its outputs.

    python3 perfbench/child.py WORKLOAD SEED OUT_PREFIX TRACED SMOKE

run.py starts one fresh interpreter per experiment with this script. It
writes OUT_PREFIX.csv (the program's own metrics CSV), OUT_PREFIX.spans.json
(the spans from spans.py) and OUT_PREFIX.json (what the correctness gate and
the end-to-end metrics need). TRACED and SMOKE are 0 or 1.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _machine() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 cannot return the config
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(argv: list[str]) -> int:
    workload, seed, prefix, traced, smoke = argv
    sys.path.insert(0, str(SRC))
    import sparsefl

    if Path(sparsefl.__file__).resolve().parent != SRC / "sparsefl":
        print(f"imported sparsefl from {sparsefl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from sparsefl import cli, simulator
    from sparsefl.config import ExperimentConfig

    import spans
    from workloads import config_kwargs

    config = ExperimentConfig(**config_kwargs(workload, int(seed), smoke == "1"))
    recorder = spans.SpanRecorder()
    spans.install(recorder, traced == "1")
    wall0 = time.perf_counter()
    trace = simulator.run_experiment(config, config.policies[0])
    wall_s = time.perf_counter() - wall0

    cli.emit_metrics_csv([trace], prefix + ".csv")
    recorder.dump(prefix + ".spans.json", f"{workload}-{seed}-{Path(prefix).name}")
    last = trace.rows[-1]
    result = {
        "rows": len(trace.rows),
        "sigma_hat": config.sigma_hat,
        "d_avg_s": trace.d_avg_s,
        "t_hats": trace.t_hats.tolist(),
        "participation": trace.participation.tolist(),
        "sim_final_accuracy": last.accuracy,
        "sim_cum_delay_s": last.cum_delay_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Printed beside the CPU-clock run_s, so the share the host took is visible.
        "wall_run_s": wall_s,
        "machine": _machine(),
    }
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
