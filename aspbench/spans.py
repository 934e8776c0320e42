"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end and a parent. Spans stay in memory
until the run ends; ``table`` then prints each name's total and self
time (duration minus the part its children cover, stats.self_time).
With tracing off, ``Tracer.span`` records nothing."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from aspbench.stats import self_time


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.cost_s = 0.0        # time spent inside the tracer itself

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t_in = time.perf_counter()
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, 0.0, 0.0, parent)
        self.spans.append(s)
        self._stack.append(sid)
        s.start = time.perf_counter()
        self.cost_s += s.start - t_in
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.cost_s += time.perf_counter() - s.end

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished child span of the current span, e.g. a phase
        whose seconds the program reported."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), name, start, end, parent))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds)."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, tuple[int, float, float]] = {}
        for s in self.spans:
            n, tot, slf = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (n + 1, tot + (s.end - s.start),
                           slf + self_time((s.start, s.end),
                                           kids.get(s.sid, [])))
        return out

    def table(self) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<34}{'count':>7}{'total_s':>11}{'self_s':>11}"]
        for name, (n, tot, slf) in rows:
            lines.append(f"{name:<34}{n:>7}{tot:>11.4f}{slf:>11.4f}")
        return "\n".join(lines)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return self.self_times().get(name, (0, 0.0, 0.0))[2]
