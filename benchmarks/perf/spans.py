"""In-memory spans recorded around calls into each layer.

A span is (name, start, end, parent, run id); counts observed at the same
boundary ride along as ``counts``.  Spans are kept in a list and written out
once, when the benchmark ends.  A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class SpanLog:
    """Single-threaded span recorder: the benchmark makes one call at a time."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the enclosed call; yields the record so counts can be attached."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name (children never overlap: calls are serial)."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
        return totals
