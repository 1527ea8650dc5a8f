"""Spans and work counts recorded around the benchmark's calls into qeuclid.

A span has a name (``<module>.<public function>``), start and end times,
the index of its parent span and the op id it belongs to.  Spans stay in
memory until the run ends.  With tracing off, ``span`` returns one shared
no-op context and ``count`` does nothing, so the untraced run goes through
the same code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NO_SPAN = _NoSpan()


class Span:
    __slots__ = ("tracer", "name", "op_id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, op_id: int):
        self.tracer = tracer
        self.name = name
        self.op_id = op_id

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else -1
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, op_id: int = -1):
        return Span(self, name, op_id) if self.enabled else NO_SPAN

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, sum of self times in seconds)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s, covered in zip(self.spans, child_time):
            row = out[s.name]
            row[0] += 1
            row[1] += (s.end - s.start) - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op_id}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
