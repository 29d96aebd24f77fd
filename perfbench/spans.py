"""In-memory spans for the traced run.

A span is (name, start, end, parent) around one public call made from the
benchmark's own code; nothing inside the package is patched. Calls made
once per sample would produce millions of spans, so they are folded into
one aggregate span per call site that keeps a count, the busy time and
every duration (for p50 and p99). Everything stays in memory until the
run prints its summary.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    count: int = 1
    busy_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)

    def add(self, duration_ns: int) -> None:
        self.count += 1
        self.busy_ns += duration_ns
        self.durations_ns.append(duration_ns)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time one call; yields the span's id for children to name."""
        record = Span(name, parent, time.perf_counter_ns())
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record.end_ns = time.perf_counter_ns()
            record.busy_ns = record.end_ns - record.start_ns
            record.durations_ns.append(record.busy_ns)

    def aggregate(self, name: str, parent: int | None = None) -> Span:
        """A span for a per-sample call: feed it durations with `add`, then
        `close` it."""
        record = Span(name, parent, time.perf_counter_ns(), count=0)
        self.spans.append(record)
        return record

    @staticmethod
    def close(record: Span) -> None:
        record.end_ns = time.perf_counter_ns()

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ns(self, index: int) -> int:
        """Busy time of a span minus the busy time of its direct children."""
        children = sum(s.busy_ns for s in self.spans if s.parent == index)
        return self.spans[index].busy_ns - children

    def summary(self) -> list[str]:
        """One line per (span, parent) pair, summed over repeats."""
        rows: dict[tuple[str, str], list[int]] = {}
        for index, s in enumerate(self.spans):
            parent = self.spans[s.parent].name if s.parent is not None else "-"
            row = rows.setdefault((s.name, parent), [0, 0, 0, 0])
            row[0] += 1
            row[1] += s.count
            row[2] += s.busy_ns
            row[3] += self.self_ns(index)
        lines = [f"{'span':<28} {'parent':<16} {'spans':>6} {'calls':>7} "
                 f"{'busy_ms':>10} {'self_ms':>10}"]
        for (name, parent), (spans, calls, busy, own) in rows.items():
            lines.append(f"{name:<28} {parent:<16} {spans:>6} {calls:>7} "
                         f"{busy / 1e6:>10.3f} {own / 1e6:>10.3f}")
        return lines


def percentile(values: list, share: float):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]
