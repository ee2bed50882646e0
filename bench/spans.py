"""In-memory span recorder and the self-time computation over its spans.

The benchmark calls every library function through :meth:`Tracer.call`.
A disabled tracer only forwards the call. An enabled one records a span
(name, start, end, parent span, op id) per call, and can measure the
Python-heap peak of a call with ``tracemalloc``. Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op: str | None = None
        # [name, start, end, parent index or None, op id or None]
        self.spans: list[list] = []
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, peak: bool = False, **kwargs):
        """Run ``fn`` inside a span; with ``peak``, also record its heap peak."""
        if not self.enabled:
            return fn(*args, **kwargs)
        if not peak:
            with self.span(name):
                return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        finally:
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), top)

    def mark(self) -> int:
        """Position in the span list, to select the spans recorded after it."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list], first: int = 0, last: int | None = None) -> dict[str, float]:
    """Per span name, the summed duration minus the part covered by child spans.

    Only spans at indices ``first`` to ``last`` (exclusive) are counted; a
    span's children are recorded after it and before the next sibling.
    """
    last = len(spans) if last is None else last
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans[first:last]:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index in range(first, last):
        name, start, end, _, _ = spans[index]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
