"""Spans recorded from outside sparsefl, and the layer metrics derived from them.

The program is not edited. install() rebinds module-global names that sparsefl
looks up at call time (for example simulator.local_train or
scheduler.linear_sum_assignment) to timing wrappers. Each call becomes one
span: name, start, end and the index of the enclosing span. Spans stay in
memory and are written once, when the experiment has finished.

Start and end are read from the process's CPU clock (time.process_time). The
experiment runs on one thread (BLAS capped at one thread by run.py), so a
span's CPU time is its wall time less the time the process was not running:
time the hypervisor gave the virtual CPU to someone else (steal) or the guest
scheduler ran another process. On a shared host that time dominates the
run-to-run spread of wall times, and it is not the program's work.

An untraced run rebinds only the three boundaries the end-to-end metrics need
(run_experiment, build_state, run_round); a traced run rebinds every layer.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module in sparsefl, global name, span name). Span names use the layer, i.e.
# the sparsefl module the wrapped function belongs to.
BOUNDARIES = (
    ("simulator", "run_experiment", "simulator.run_experiment"),
    ("simulator", "build_state", "simulator.build_state"),
    ("simulator", "run_round", "simulator.run_round"),
)
LAYERS = (
    ("simulator", "make_ledger", "accountant.make_ledger"),
    ("simulator", "synthesize_classification", "model_data.synthesize_classification"),
    ("simulator", "partition", "model_data.partition"),
    ("simulator", "RoundContext", "scheduler.round_context"),
    ("simulator", "realize_channels", "wireless.realize_channels"),
    ("simulator", "schedule_round", "scheduler.schedule_round"),
    ("simulator", "baseline_schedule", "scheduler.baseline_schedule"),
    ("simulator", "validate_decision", "scheduler.validate_decision"),
    ("simulator", "local_train", "dpsgd.local_train"),
    ("simulator", "evaluate", "model_data.evaluate"),
    ("scheduler", "linear_sum_assignment", "scheduler.matching"),
    ("scheduler", "optimal_assignment", "scheduler.optimal_assignment"),
    ("scheduler", "optimal_power", "scheduler.optimal_power"),
    ("scheduler", "optimal_sparsification", "scheduler.optimal_sparsification"),
    ("wireless", "round_costs", "wireless.round_costs"),
    ("dpsgd", "per_sample_loss_grads", "model_data.per_sample_loss_grads"),
    ("streams", "substream", "streams.substream"),
)

# Per-layer metrics printed by a traced run: (name, unit, better).
PER_LAYER = (
    ("accountant.make_ledger.s", "s", "lower"),
    ("accountant.make_ledger.calls", "count", "lower"),
    ("accountant.distinct_q_sigma", "count", "lower"),
    ("accountant.grid_reuse_ratio", "ratio", "higher"),
    ("simulator.build_state.s", "s", "lower"),
    ("simulator.calibrate.s", "s", "lower"),
    ("simulator.run_round.s", "s", "lower"),
    ("simulator.run_round.calls", "count", "higher"),
    ("simulator.other_s", "s", "lower"),
    ("model_data.build_data.s", "s", "lower"),
    ("model_data.evaluate.s", "s", "lower"),
    ("model_data.evaluate.calls", "count", "lower"),
    ("model_data.per_sample_loss_grads.s", "s", "lower"),
    ("scheduler.schedule_round.s", "s", "lower"),
    ("scheduler.schedule_round.self_s", "s", "lower"),
    ("scheduler.schedule_round.calls", "count", "lower"),
    ("scheduler.optimal_assignment.s", "s", "lower"),
    ("scheduler.optimal_assignment.self_s", "s", "lower"),
    ("scheduler.optimal_assignment.calls", "count", "lower"),
    ("scheduler.matchings", "count", "lower"),
    ("scheduler.matching.s", "s", "lower"),
    ("scheduler.matching_share", "ratio", "higher"),
    ("scheduler.passes", "count", "lower"),
    ("scheduler.optimal_power.s", "s", "lower"),
    ("scheduler.optimal_sparsification.s", "s", "lower"),
    ("scheduler.empty_rounds", "count", "lower"),
    ("scheduler.baseline_schedule.s", "s", "lower"),
    ("scheduler.round_context.s", "s", "lower"),
    ("scheduler.validate_decision.s", "s", "lower"),
    ("wireless.realize_channels.s", "s", "lower"),
    ("wireless.round_costs.s", "s", "lower"),
    ("wireless.round_costs.calls", "count", "lower"),
    ("dpsgd.local_train.s", "s", "lower"),
    ("dpsgd.local_train.self_s", "s", "lower"),
    ("dpsgd.local_train.calls", "count", "lower"),
    ("dpsgd.steps", "count", "lower"),
    ("dpsgd.grad_matrix_bytes", "bytes-computed", "lower"),
    ("streams.substream.s", "s", "lower"),
    ("streams.substream.calls", "count", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)

# Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes-computed"))


class SpanRecorder:
    """Columnar in-memory span store filled by the wrappers from wrap()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.q_sigma: set[tuple[float, float]] = set()

    def wrap(self, fn, name, note=None):
        """Return fn timed as span `name`; note(args, result_or_exception) runs after."""
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self.stack,
        )
        clock = time.process_time

        def timed(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    note(args, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if note is not None:
                note(args, result)
            return result

        return timed

    def dump(self, path: str, run_id: str) -> None:
        """Write every span and count as one JSON document."""
        origin = self.starts[0] if self.starts else 0.0
        counts = dict(self.counts)
        counts["accountant.distinct_q_sigma"] = len(self.q_sigma)
        doc = {
            "run_id": run_id,
            "name": self.names,
            "start": [t - origin for t in self.starts],
            "end": [t - origin for t in self.ends],
            "parent": self.parents,
            "counts": counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(recorder: SpanRecorder, traced: bool) -> None:
    """Rebind the boundary names, and with traced every layer name, to spans."""
    from sparsefl import dpsgd, scheduler, simulator, streams, wireless

    modules = {
        "simulator": simulator,
        "scheduler": scheduler,
        "wireless": wireless,
        "dpsgd": dpsgd,
        "streams": streams,
    }
    counts = recorder.counts

    def note_ledger(args, _result):
        params = args[1]
        recorder.q_sigma.add((params.q, params.sigma_hat))

    def note_schedule(_args, result):
        if isinstance(result, scheduler.EmptyRoundError):
            counts["scheduler.empty_rounds"] += 1
        elif not isinstance(result, BaseException):
            counts["scheduler.passes"] += len(result.v_trace)

    def note_train(args, _result):
        counts["dpsgd.steps"] += args[3].tau

    def note_grads(args, _result):
        model, features = args[0], args[1]
        counts["dpsgd.grad_matrix_bytes"] += features.shape[0] * model.spec.dim * 8

    notes = {
        "accountant.make_ledger": note_ledger,
        "scheduler.schedule_round": note_schedule,
        "dpsgd.local_train": note_train,
        "model_data.per_sample_loss_grads": note_grads,
    }
    for module_name, attr, span in BOUNDARIES + (LAYERS if traced else ()):
        module = modules[module_name]
        setattr(module, attr, recorder.wrap(getattr(module, attr), span, notes.get(span)))


def summarize(doc: dict) -> dict:
    """Inclusive seconds, self seconds and call counts per span name.

    A span's self time is its duration minus the durations of its direct
    children; wrapped calls run on one thread, so children never overlap.
    """
    names, parents = doc["name"], doc["parent"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child_time = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += dur[i]
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    calibrate = 0.0
    for i, name in enumerate(names):
        incl[name] += dur[i]
        self_s[name] += dur[i] - child_time[i]
        calls[name] += 1
        p = parents[i]
        if name == "scheduler.baseline_schedule" and p >= 0 and names[p] == "simulator.build_state":
            calibrate += dur[i]
    return {
        "incl": dict(incl),
        "self": dict(self_s),
        "calls": dict(calls),
        "calibrate": calibrate,
        "round_s": [d for d, n in zip(dur, names) if n == "simulator.run_round"],
    }


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Every PER_LAYER value except trace_overhead_ratio, for one traced run."""

    def incl(name):
        return summary["incl"].get(name, 0.0)

    def self_s(name):
        return summary["self"].get(name, 0.0)

    def calls(name):
        return summary["calls"].get(name, 0)

    ledgers = calls("accountant.make_ledger")
    distinct = counts.get("accountant.distinct_q_sigma", 0)
    assign_s = incl("scheduler.optimal_assignment")
    return {
        "accountant.make_ledger.s": incl("accountant.make_ledger"),
        "accountant.make_ledger.calls": ledgers,
        "accountant.distinct_q_sigma": distinct,
        "accountant.grid_reuse_ratio": (ledgers - distinct) / ledgers if ledgers else 0.0,
        "simulator.build_state.s": incl("simulator.build_state"),
        "simulator.calibrate.s": summary["calibrate"],
        "simulator.run_round.s": incl("simulator.run_round"),
        "simulator.run_round.calls": calls("simulator.run_round"),
        "simulator.other_s": sum(
            self_s(n)
            for n in ("simulator.run_experiment", "simulator.build_state", "simulator.run_round")
        ),
        "model_data.build_data.s": incl("model_data.synthesize_classification")
        + incl("model_data.partition"),
        "model_data.evaluate.s": incl("model_data.evaluate"),
        "model_data.evaluate.calls": calls("model_data.evaluate"),
        "model_data.per_sample_loss_grads.s": incl("model_data.per_sample_loss_grads"),
        "scheduler.schedule_round.s": incl("scheduler.schedule_round"),
        "scheduler.schedule_round.self_s": self_s("scheduler.schedule_round"),
        "scheduler.schedule_round.calls": calls("scheduler.schedule_round"),
        "scheduler.optimal_assignment.s": assign_s,
        "scheduler.optimal_assignment.self_s": self_s("scheduler.optimal_assignment"),
        "scheduler.optimal_assignment.calls": calls("scheduler.optimal_assignment"),
        "scheduler.matchings": calls("scheduler.matching"),
        "scheduler.matching.s": incl("scheduler.matching"),
        "scheduler.matching_share": incl("scheduler.matching") / assign_s if assign_s else 0.0,
        "scheduler.passes": counts.get("scheduler.passes", 0),
        "scheduler.optimal_power.s": incl("scheduler.optimal_power"),
        "scheduler.optimal_sparsification.s": incl("scheduler.optimal_sparsification"),
        "scheduler.empty_rounds": counts.get("scheduler.empty_rounds", 0),
        "scheduler.baseline_schedule.s": incl("scheduler.baseline_schedule"),
        "scheduler.round_context.s": incl("scheduler.round_context"),
        "scheduler.validate_decision.s": incl("scheduler.validate_decision"),
        "wireless.realize_channels.s": incl("wireless.realize_channels"),
        "wireless.round_costs.s": incl("wireless.round_costs"),
        "wireless.round_costs.calls": calls("wireless.round_costs"),
        "dpsgd.local_train.s": incl("dpsgd.local_train"),
        "dpsgd.local_train.self_s": self_s("dpsgd.local_train"),
        "dpsgd.local_train.calls": calls("dpsgd.local_train"),
        "dpsgd.steps": counts.get("dpsgd.steps", 0),
        "dpsgd.grad_matrix_bytes": counts.get("dpsgd.grad_matrix_bytes", 0),
        "streams.substream.s": incl("streams.substream"),
        "streams.substream.calls": calls("streams.substream"),
    }
