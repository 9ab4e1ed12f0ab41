"""In-memory span tracer for the benchmark's own calls into qdq layers.

A span is a dict with ``id``, ``parent`` (the enclosing span's id), ``name``,
``op`` (the operation it belongs to, shared by all spans of one MC point,
solve or CLI call) and ``start``/``end`` from ``time.perf_counter``.  Spans
stay in memory; run.py writes them out when a run ends.  A disabled
tracer hands out one shared null context, so untraced rounds pay only a
method call per span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        # Private probes whose target is gone or has a new signature:
        # metric-layer name -> reason.  Reported, never raised.
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []

    def span(self, name: str, op=None):
        if not self.enabled:
            return _NULL
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op):
        record = self._open(name, op, time.perf_counter())
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, op=None) -> None:
        """Add a span timed by the caller (used where a failed call must
        leave no span behind)."""
        if self.enabled:
            self._open(name, op, start)["end"] = end

    def _open(self, name: str, op, start: float) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "op": op,
            "start": start,
            "end": None,
        }
        self.spans.append(record)
        return record

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + int(n)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    its direct children cover (spans of one process never overlap)."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(totals)
