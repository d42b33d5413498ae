"""Correctness gate applied to every experiment the benchmark runs.

An experiment fails the gate when its metrics CSV holds a non-finite value,
when its delay-debt column does not follow the queue recursion, when a
private client participated more often than its forecast t_hat allows, or
when its CSV bytes differ from the other experiments of the same run.
"""

from __future__ import annotations

import math
from collections import Counter

# Relative slack for the recursion check; the CSV prints 9 significant digits.
_RECURSION_RTOL = 1e-7


def csv_errors(csv_text: str, d_avg_s: float) -> list[str]:
    """Finite values and the q_de recursion, checked row by row."""
    lines = csv_text.splitlines()
    if len(lines) < 2:
        return ["CSV has no data rows"]
    header = lines[0].split(",")
    errors = []
    q_prev = 0.0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            errors.append(f"line {lineno}: {len(fields)} fields, header has {len(header)}")
            continue
        row = {}
        for col, raw in zip(header, fields):
            if col == "policy":
                continue
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                errors.append(f"line {lineno}: {col} = {raw!r} is not finite")
            row[col] = value
        delay, q_de = row.get("round_delay_s", math.nan), row.get("q_de", math.nan)
        expected = max(q_prev + delay - d_avg_s, 0.0)
        slack = _RECURSION_RTOL * (abs(q_prev) + abs(delay) + d_avg_s)
        if not abs(q_de - expected) <= slack:
            errors.append(
                f"line {lineno}: q_de {q_de!r} breaks the recursion "
                f"max(q_de_prev + round_delay_s - d_avg_s, 0) = {expected!r}"
            )
        q_prev = q_de
    return errors


def privacy_errors(participation: list[int], t_hats: list[int], sigma_hat: float) -> list[str]:
    """With privacy on, no client participates more often than its t_hat."""
    if sigma_hat <= 0:
        return []
    return [
        f"client {i} participated {p} times, t_hat is {t}"
        for i, (p, t) in enumerate(zip(participation, t_hats))
        if p > t
    ]


def mismatched(keys: list) -> list[int]:
    """Indices whose key differs from the most common key (the first on a tie)."""
    if not keys:
        return []
    majority = Counter(keys).most_common(1)[0][0]
    return [i for i, key in enumerate(keys) if key != majority]
