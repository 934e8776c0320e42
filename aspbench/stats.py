"""The benchmark's own arithmetic: percentiles with the sample rule, span
self time, the shard ledger, and run-to-run spread. Pure functions, tested
in aspbench/tests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-th percentile (nearest rank) of ``samples``, or None when
    fewer than 10 samples lie beyond it: a tail figure resting on a
    handful of samples swings with them."""
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q / 100 * n)          # 1-based nearest rank
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def self_time(span: tuple[float, float],
              children: list[tuple[float, float]]) -> float:
    """Duration of ``span`` minus the part of it that its children cover.
    Children may overlap each other and stick out of the parent; covered
    time is counted once and clipped to the parent."""
    lo, hi = span
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return (hi - lo) - covered


@dataclass(frozen=True)
class LedgerRow:
    round: int
    offered: int
    rejected_seen: int
    rejected_filtered: int
    newly_discovered: int
    scheduled: int
    trace_rows: int


def reconcile(rows: list[LedgerRow]) -> tuple[list[int], list[str]]:
    """Check each round of the shard ledger. ``offered`` must cover every
    outcome it can have; the remainder is urls offered twice within the
    round (``dup_in_round``). ``scheduled`` must equal the round's trace
    rows. Returns (dup_in_round per round, error messages)."""
    dups, errors = [], []
    for r in rows:
        accounted = r.rejected_seen + r.rejected_filtered + r.newly_discovered
        dup = r.offered - accounted
        if dup < 0:
            errors.append(f"round {r.round}: offered {r.offered} < "
                          f"rejected + new {accounted}")
        if r.scheduled != r.trace_rows:
            errors.append(f"round {r.round}: scheduled {r.scheduled} != "
                          f"trace rows {r.trace_rows}")
        dups.append(dup)
    return dups, errors


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
