"""Bench-side spans: one record around each call into a program layer.

Spans are recorded from the benchmark's own files (the program is not
instrumented), kept in memory, and written out once at exit.  A span's self
time is its duration minus the part its child spans cover, so the per-name
self times of one thread add up to that thread's traced wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    """Collects ``(id, name, start, end, parent, workload)`` records.

    ``enabled=False`` makes :meth:`span` a no-op so the untraced pass runs the
    same code without the bookkeeping.
    """

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (duration minus direct children)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"workload": self.workload, "self_time_s": self.self_times(), "spans": self.spans}
        path.write_text(json.dumps(doc), encoding="utf-8")
