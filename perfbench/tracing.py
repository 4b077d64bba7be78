"""In-memory spans and counters for the traced benchmark run.

A span records a name, its start and end (``perf_counter_ns``), the index of
the span that was open when it began (its parent) and the id of the op it
belongs to. Spans stay in memory while the run measures and are written once,
as JSON Lines, when it ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), None, self._open[-1] if self._open else None, self.op]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float | None:
        values = self.durations_ms(name)
        return statistics.median(values) if values else None

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part of it that its children cover."""
        children: list[list[tuple[int, int]]] = [[] for _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for (_, start, end, _, _), kids in zip(self.spans, children):
            covered, reach = 0, start
            for lo, hi in sorted(kids):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def self_ms_by_name(self) -> dict[str, float]:
        totals: Counter = Counter()
        for rec, own in zip(self.spans, self.self_ns()):
            totals[rec[0]] += own / 1e6
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (rec, own) in enumerate(zip(self.spans, self.self_ns())):
                name, start, end, parent, op = rec
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                            "self_ns": own,
                        }
                    )
                    + "\n"
                )
