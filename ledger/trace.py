"""Benchmark-owned host-time spans around the calls into the program.

Spans are kept in memory as ``(id, parent, name, start, end)`` rows and
written out once, when the traced run ends.  A span's *self time* is its
duration minus the part of that interval its child spans cover, so the
self times of a tree add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Iterator, Optional


class SpanRecorder:
    """In-memory span list on a host clock (``time.perf_counter``)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: rows ``[id, parent_id_or_None, name, start, end_or_None]``
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span; the innermost open span is its parent."""
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        row = [span_id, parent, name, self.clock(), None]
        self.spans.append(row)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            row[4] = self.clock()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's cover."""
        return self_times(self.spans)

    def total_by_name(self) -> dict[str, float]:
        """Duration summed over the spans that share a name."""
        out: dict[str, float] = {}
        for _id, _parent, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order."""
        own = self.self_times()
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "self_s": own[span_id],
                }) + "\n")


def self_times(spans: list) -> dict[int, float]:
    """Self time per span id for ``(id, parent, name, start, end)`` rows.

    Children are clipped to their parent's interval and overlapping
    children are counted once (interval union), so a parent's self time
    is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {row[0]: (row[3], row[4]) for row in spans}
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            lo, hi = bounds[parent]
            children.setdefault(parent, []).append((max(start, lo), min(end, hi)))
    out = {}
    for span_id, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def phase(recorder: Optional[SpanRecorder], name: str):
    """``with phase(rec, "build"):`` -- a no-op when tracing is off."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()
