"""In-memory spans recorded around the benchmark's calls into each layer.

Spans are kept in a list while the run measures and written out once at
the end, so recording costs two clock reads and one append per span.
Only process-local clocks are read: no system-wide tracing is involved.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, pass id, attributes) spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as one span; the yielded dict takes attributes."""
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield record["attrs"]
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            record["start_ns"] = start - self._origin
            record["end_ns"] = end - self._origin

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in seconds."""
        return [(r["end_ns"] - r["start_ns"]) / 1e9 for r in self.spans if r["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **record}) + "\n")


class CountingObjective:
    """Wraps an objective to count its calls and time them."""

    def __init__(self, objective) -> None:
        self.objective = objective
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, alloc):
        start = time.perf_counter()
        value = self.objective(alloc)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return value
