"""Benchmark command: run one workload in fresh interpreters and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it measures the sparsefl package
under src/ as it stands, without installing or editing it. Every experiment
runs in its own interpreter (child.py), so each one pays the accountant's
in-process cache fill as every CLI invocation does. Timings are CPU seconds of
that single-threaded interpreter (see spans.py); wall seconds are printed
beside them. Experiments run one after another until the next would overrun
--seconds, with at least the workload's min_runs of each kind. With --trace 0
all experiments are untraced and give the end-to-end metrics. With --trace 1
untraced and traced experiments alternate: the traced ones give the per-layer
metrics, and both together give the tracing overhead.

Every experiment passes through the correctness gate (gate.py). The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; attempted and failed count experiments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
from workloads import TAIL_BEYOND, TAIL_PERCENTILES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Every run must end within 180 s; no experiment starts past this budget.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics printed by an untraced run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("round_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_final_accuracy", "fraction", "higher"),
    ("sim_cum_delay_s", "sim_s", "lower"),
)
# Printed by an untraced run but kept out of the JSON line and BENCHMARK.json:
# fail_ratio is 0 at the seed, and the median round flips between the two
# speeds of a shared host (see NOTES.md).
PRINTED_ONLY = (("round_ms_p50", "ms"), ("fail_ratio", "fraction"))


class Experiment:
    """One finished child interpreter: its outputs and the gate's verdict."""

    def __init__(self, index: int, traced: bool, prefix: Path, returncode: int, stderr: str):
        self.index = index
        self.traced = traced
        self.errors: list[str] = []
        self.result: dict = {}
        self.summary: dict = {}
        self.counts: dict = {}
        self.csv_sha = ""
        if returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.errors.append(f"exit code {returncode}: {tail[0]}")
            return
        csv_bytes = prefix.with_suffix(".csv").read_bytes()
        self.csv_sha = hashlib.sha256(csv_bytes).hexdigest()
        self.result = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        doc = json.loads(prefix.with_suffix(".spans.json").read_text(encoding="utf-8"))
        self.summary = spans.summarize(doc)
        self.counts = doc["counts"]
        self.errors += gate.csv_errors(csv_bytes.decode("utf-8"), self.result["d_avg_s"])
        self.errors += gate.privacy_errors(
            self.result["participation"], self.result["t_hats"], self.result["sigma_hat"]
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def setup_s(self) -> float:
        return self.summary["incl"]["simulator.build_state"]

    @property
    def run_s(self) -> float:
        return self.summary["incl"]["simulator.run_experiment"]

    @property
    def round_s(self) -> list[float]:
        # A final run_round that found nobody eligible produced no row.
        return self.summary["round_s"][: self.result["rows"]]


def child_env() -> dict:
    """The parent's environment with BLAS and OpenMP capped at one thread.

    One thread is within the nproc cap, keeps the CPU clock equal to the
    program's own work (idle OpenBLAS workers spin, and their spinning would
    count), and measured the same wall time as two threads on train_mlp.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_experiments(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Start children one after another; returns the finished Experiments."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    kinds = (False, True) if trace else (False,)
    minimum = WORKLOADS[workload]["min_runs"] * len(kinds)
    experiments: list[Experiment] = []
    t0 = time.perf_counter()
    while True:
        index = len(experiments)
        traced = kinds[index % len(kinds)]
        prefix = out / f"child{index}"
        timeout = RUN_BUDGET_S - (time.perf_counter() - t0)
        cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(prefix)]
        cmd += ["1" if traced else "0", "1" if smoke else "0"]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
            )
            experiments.append(Experiment(index, traced, prefix, proc.returncode, proc.stderr))
        except subprocess.TimeoutExpired:
            experiments.append(Experiment(index, traced, prefix, -9, "timed out"))
            break
        elapsed = time.perf_counter() - t0
        per_child = elapsed / len(experiments)
        if len(experiments) >= minimum and elapsed + per_child > seconds:
            break
        if elapsed + per_child > RUN_BUDGET_S:
            break
    _gate_across(experiments)
    return experiments


def _gate_across(experiments: list[Experiment]) -> None:
    """Rerun identity of the CSV bytes, and of the counts of traced runs."""
    done = [e for e in experiments if e.ok]
    for i in gate.mismatched([e.csv_sha for e in done]):
        done[i].errors.append(f"CSV sha256 {done[i].csv_sha[:16]} differs from the other runs")
    traced = [e for e in done if e.traced]
    values = [spans.layer_metrics(e.summary, e.counts) for e in traced]
    keys = [tuple(v[name] for name in spans.EXACT_COUNTS) for v in values]
    for i in gate.mismatched(keys):
        traced[i].errors.append("per-layer counts differ from the other traced runs")


def tail_percentile(min_runs: int, rows_per_run: int) -> int:
    """Highest candidate percentile with TAIL_BEYOND rounds above it in min_runs runs."""
    n = min_runs * rows_per_run
    fits = [p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND]
    return max(fits, default=TAIL_PERCENTILES[0])


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, runs: list[Experiment]) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics over untraced runs, and lines for the printed-only ones."""
    rounds = [1e3 * s for e in runs for s in e.round_s]
    p = tail_percentile(WORKLOADS[workload]["min_runs"], runs[0].result["rows"])
    first = runs[0].result
    metrics = {
        "setup_s": statistics.median(e.setup_s for e in runs),
        "run_s": statistics.median(e.run_s for e in runs),
        "rounds_per_s": statistics.median(e.result["rows"] / (e.run_s - e.setup_s) for e in runs),
        "round_ms_tail": percentile(rounds, p),
        "peak_rss_mb": statistics.median(e.result["peak_rss_mb"] for e in runs),
        "sim_final_accuracy": first["sim_final_accuracy"],
        "sim_cum_delay_s": first["sim_cum_delay_s"],
    }
    return metrics, [
        f"  round_ms_tail is p{p} over n={len(rounds)} rounds",
        f"  {'round_ms_p50':40s} {statistics.median(rounds):.6g} ms",
    ]


def per_layer(untraced: list[Experiment], traced: list[Experiment]) -> dict[str, float]:
    """Medians of the per-layer metrics over traced runs, plus the tracing overhead."""
    per_run = [spans.layer_metrics(e.summary, e.counts) for e in traced]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace_overhead_ratio"] = (
        statistics.median(e.run_s for e in traced) / statistics.median(e.run_s for e in untraced)
        - 1.0
    )
    return metrics


def self_time_table(traced: list[Experiment]) -> list[str]:
    """Inclusive and self seconds per span name in the first traced run."""
    e = traced[0]
    run_s = e.run_s
    lines = [f"  {'span':40s} {'incl_s':>9s} {'self_s':>9s} {'self%':>6s} {'calls':>8s}"]
    for name, self_s in sorted(e.summary["self"].items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:40s} {e.summary['incl'][name]:9.3f} {self_s:9.3f} "
            f"{100 * self_s / run_s:6.1f} {e.summary['calls'][name]:8d}"
        )
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run the workload; returns (result object, human-readable lines)."""
    experiments = run_experiments(workload, seed, seconds, trace, smoke)
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)} smoke={int(smoke)}"]
    for e in experiments:
        kind = "traced" if e.traced else "untraced"
        if e.ok:
            lines.append(
                f"  run {e.index} {kind}: run_s {e.run_s:.3f} setup_s {e.setup_s:.3f} "
                f"wall {e.result['wall_run_s']:.3f} rows {e.result['rows']} "
                f"csv sha256 {e.csv_sha[:16]}"
            )
        else:
            lines.append(f"  run {e.index} {kind}: FAILED: {'; '.join(e.errors[:3])}")
    untraced = [e for e in experiments if e.ok and not e.traced]
    traced = [e for e in experiments if e.ok and e.traced]
    failed = sum(not e.ok for e in experiments)
    if not untraced or (trace and not traced):
        return None, lines
    machine = untraced[0].result["machine"]
    caps = ", ".join(f"{v}={child_env()[v]}" for v in THREAD_VARS)
    lines.append(f"  machine: nproc={len(os.sched_getaffinity(0))}, {machine}, {caps}")
    if trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        lines += self_time_table(traced)
    else:
        metrics, notes = end_to_end(workload, untraced)
        units = {name: unit for name, unit, _ in END_TO_END}
        lines += notes
    for name, value in metrics.items():
        lines.append(f"  {name:40s} {value:.6g} {units[name]}")
    lines.append(f"  {'fail_ratio':40s} {failed / len(experiments):.6g} fraction")
    result = {
        "correct": failed == 0,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "sparsefl" / "__init__.py").is_file():
        print(f"perfbench: no sparsefl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    if result is None:
        print("perfbench: no experiment of a needed kind passed", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
