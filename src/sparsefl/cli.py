"""Batch driver: run configured experiments to CSV, or run the oracle suite.

Subcommands:
  run     --config FILE [--seed N] [--policy NAME] [--out FILE]
  verify  (no arguments; prints one PASS/FAIL line per oracle group)

Exit codes: 0 success, 1 a privacy error, training that diverged or a link
whose Shannon rate rounds to zero, 2 a config error, 3 an output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .accountant import AccountantOverflowError, DegenerateBudgetError
from .config import ConfigError, parse_config, validate_config
from .dpsgd import TrainingDivergenceError
from .simulator import CSV_COLUMNS, MetricsTrace, run_experiment
from .wireless import DeadLinkError


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean columns in the metrics schema")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def emit_metrics_csv(traces: list[MetricsTrace], path: str) -> None:
    """Write one CSV with the fixed column header and one row per (policy, round)."""
    if not traces:
        raise ValueError("no traces to write")
    lines = [",".join(CSV_COLUMNS)]
    for trace in traces:
        for row in trace.rows:
            lines.append(",".join(_format_value(getattr(row, col)) for col in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefl",
        description="Differentially private sparsified federated learning over a modeled "
        "wireless network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment and write metrics CSV")
    run.add_argument("--config", required=True, help="path to the key-value config file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--policy", default=None, help="run only this policy")
    run.add_argument("--out", default="metrics.csv", help="output CSV path")

    sub.add_parser("verify", help="run the independent oracle suites")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.policy is not None:
        cfg = replace(cfg, policies=(args.policy,))
    validate_config(cfg)

    traces = []
    for policy in cfg.policies:
        trace = run_experiment(cfg, policy)
        traces.append(trace)
        last = trace.rows[-1] if trace.rows else None
        born_exhausted = int((trace.t_hats == 0).sum())
        summary = (
            f"{policy}: {len(trace.rows)} rounds"
            + (f", final accuracy {last.accuracy:.4f}, cumulative delay {last.cum_delay_s:.3f} s"
               if last else ", no rounds completed")
            + f", {born_exhausted} of {trace.t_hats.size} clients born exhausted (t_hat = 0)"
            + (f" (retired everyone at round {trace.truncated_at})"
               if trace.truncated_at is not None else "")
        )
        print(summary)
    emit_metrics_csv(traces, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify() -> int:
    from .oracles import run_verify

    failures, lines = run_verify()
    for line in lines:
        print(line)
    print(f"{len(lines) - failures} of {len(lines)} oracle groups passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateBudgetError, AccountantOverflowError) as exc:
        print(f"privacy error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergenceError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 1
    except DeadLinkError as exc:
        print(f"link error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
