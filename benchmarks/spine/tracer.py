"""The benchmark's own tracer: spans recorded from outside the program.

A span is ``(name, start_ns, end_ns, parent, request)``.  Spans of one
request share its ``request`` id; ``parent`` is the index of the span that
caused this one (``-1`` for a root).  Spans stay in memory and are written
out once, when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that its
child spans cover — the union of the children clipped to the parent, so
overlapping children (two client threads inside one block span) are not
subtracted twice and a child that outlives its parent cannot make the self
time negative.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent, request]`` per span.
        self.spans: list[list] = []
        # The network door's client threads record concurrently; the index a
        # span is stored at must be the one handed back.
        self._lock = threading.Lock()

    def begin(self, name: str, parent: int = -1, request: int = -1) -> int:
        """Open a span now; returns its index (use as a child's ``parent``)."""
        return self.add(name, time.perf_counter_ns(), 0, parent, request)

    def end(self, span: int) -> int:
        """Close a span now; returns its duration in nanoseconds."""
        record = self.spans[span]
        record[2] = time.perf_counter_ns()
        return record[2] - record[1]

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: int = -1, request: int = -1
    ) -> int:
        """Record a span whose boundaries were taken elsewhere."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, parent, request])
            return len(self.spans) - 1

    def durations_us(self) -> dict[str, list[float]]:
        """Span durations in microseconds, grouped by name."""
        grouped: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans:
            grouped.setdefault(name, []).append((end - start) / 1e3)
        return grouped

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write every span plus a per-name summary (count, median, self)."""
        selfs = self_times_ns(self.spans)
        by_name: dict[str, list[tuple[int, int]]] = {}
        for span, self_ns in zip(self.spans, selfs):
            by_name.setdefault(span[0], []).append((span[2] - span[1], self_ns))
        summary = {
            name: {
                "count": len(pairs),
                "median_us": statistics.median(total for total, _ in pairs) / 1e3,
                "median_self_us": statistics.median(own for _, own in pairs) / 1e3,
            }
            for name, pairs in by_name.items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "summary": summary,
                    **(extra or {}),
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def covered_ns(intervals: list[tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times_ns(spans: list[list]) -> list[int]:
    """Self time of every span, aligned with ``spans``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_ns(children.get(index, []), start, end)
        for index, (_, start, end, _, _) in enumerate(spans)
    ]
