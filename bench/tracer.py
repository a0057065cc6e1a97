"""In-memory span recorder for the benchmark's traced run.

A span is [name, start, end, parent, plan id]; `parent` is the index of the
enclosing span, -1 for a root. Spans are recorded by the benchmark around
its own calls into the package, kept in a list and written out once the run
ends. `NullTracer` is what the untraced run uses: its `span` hands back one
shared do-nothing context manager.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

_NULL = contextlib.nullcontext()
NAME, START, END, PARENT, PLAN = range(5)


class NullTracer:
    enabled = False

    def span(self, name, plan_id=None):
        return _NULL

    def wrap_oracle(self, oracle, plan_id):
        return oracle


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][END] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name, plan_id=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, plan_id])
        self.stack.append(index)
        return _Open(self, index)

    def wrap_oracle(self, oracle, plan_id):
        """The probe oracle with a `simeval.cost_oracle` span per call."""

        def traced(key, coord):
            with self.span("simeval.cost_oracle", plan_id):
                return oracle(key, coord)

        return traced

    def totals(self, root: int) -> dict[str, list]:
        """Per span name: [self time, inclusive time, calls] summed over the
        subtree of span `root`, the root included. Self time is a span's
        duration minus the durations of its direct children."""
        spans = self.spans
        children_time = [0.0] * len(spans)
        inside = [False] * len(spans)
        inside[root] = True
        # Spans are appended at entry, so a child always follows its parent.
        for i in range(root + 1, len(spans)):
            p = spans[i][PARENT]
            if p >= 0 and inside[p]:
                inside[i] = True
                children_time[p] += spans[i][END] - spans[i][START]
        out: dict[str, list] = {}
        for i in range(root, len(spans)):
            if inside[i]:
                s = spans[i]
                acc = out.setdefault(s[NAME], [0.0, 0.0, 0])
                acc[0] += (s[END] - s[START]) - children_time[i]
                acc[1] += s[END] - s[START]
                acc[2] += 1
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines, one span each, times in seconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": round(s[START] - t0, 7),
                    "end": round(s[END] - t0, 7), "parent": s[PARENT], "plan": s[PLAN],
                }) + "\n")
