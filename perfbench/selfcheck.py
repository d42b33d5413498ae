"""Seconds-long self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs the smoke variant of every workload (a few rounds on a smaller instance)
untraced and traced, and asserts that each run passes the gate and prints
every metric BENCHMARK.json names, and the printed-only ones, with its unit. Then it shows that the
correctness gate fails an experiment whose CSV differs from its rerun by one
byte, and one whose q_de column breaks the queue recursion. Exits 0 when all
checks hold.
"""

from __future__ import annotations

import json
import sys

import run
import spans
from workloads import WORKLOADS


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_declared_metrics() -> dict:
    """BENCHMARK.json must declare exactly the metrics the code prints."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        check(got == list(table), f"BENCHMARK.json {key} differs from the code")
    check(sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS), "workloads")
    return declared


def check_printed(workload: str, trace: bool, declared: dict) -> None:
    result, lines = run.measure(workload, seed=1, seconds=1.0, trace=trace, smoke=True)
    check(result is not None, f"{workload} trace={trace}: no result\n" + "\n".join(lines))
    check(result["correct"] and result["failed"] == 0, f"{workload}: gate failed\n" + "\n".join(lines))
    expected = declared["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    check(set(printed) == {m["name"] for m in expected}, f"{workload}: metric names differ")
    named = [(m["name"], m["unit"]) for m in expected]
    if not trace:
        named += run.PRINTED_ONLY
    for name, unit in named:
        check(name not in printed or printed[name]["unit"] == unit, f"{workload}: unit of {name}")
        check(
            any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines),
            f"{workload}: {name} not printed with its unit",
        )
    print(f"selfcheck: {workload} trace={int(trace)} printed {len(printed)} metrics")


def check_gate_rejects(workload: str) -> None:
    """Rerun the smoke variant, then corrupt one CSV byte and one q_de value."""
    experiments = run.run_experiments(workload, seed=1, seconds=1.0, trace=False, smoke=True)
    check(all(e.ok for e in experiments), f"{workload}: clean smoke run failed the gate")
    out = run.OUT / workload

    # One altered byte: the last digit of the first row's accuracy.
    csv_path = out / "child1.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(",")
    digit = fields[2][-1]
    fields[2] = fields[2][:-1] + ("1" if digit != "1" else "2")
    lines[1] = ",".join(fields)
    csv_path.write_text("".join(lines), encoding="utf-8")
    reloaded = [run.Experiment(i, False, out / f"child{i}", 0, "") for i in range(2)]
    run._gate_across(reloaded)
    check(not reloaded[1].ok and reloaded[0].ok, "an altered CSV byte passed the gate")

    # A queue row off its recursion by one d_avg.
    csv_path = out / "child0.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    d_avg = json.loads((out / "child0.json").read_text(encoding="utf-8"))["d_avg_s"]
    header = lines[0].strip().split(",")
    col = header.index("q_de")
    fields = lines[-1].rstrip("\n").split(",")
    fields[col] = "%.9g" % (float(fields[col]) + d_avg)
    lines[-1] = ",".join(fields) + "\n"
    csv_path.write_text("".join(lines), encoding="utf-8")
    broken = run.Experiment(0, False, out / "child0", 0, "")
    check(any("recursion" in err for err in broken.errors), "a broken q_de row passed the gate")
    print(f"selfcheck: {workload} gate rejects an altered byte and a broken queue row")


def main() -> int:
    declared = check_declared_metrics()
    for workload in WORKLOADS:
        for trace in (False, True):
            check_printed(workload, trace, declared)
    check_gate_rejects("sched_wide")
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
