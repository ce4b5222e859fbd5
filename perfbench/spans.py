"""In-memory spans around the benchmark's calls into each layer.

A span carries name, start, end, parent and the run id. Spans are kept
in memory and written once, when the run ends. A layer's self time is
its span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: seconds spent in span bookkeeping itself (the tracing overhead)
        self.bookkeeping_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        b0 = time.perf_counter()
        idx = len(self.spans)
        rec = {"name": name, "run_id": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        self.bookkeeping_s += rec["start"] - b0
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - rec["end"]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child.get(i, 0.0)
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "self_s": self.self_times(), **extra}, f, indent=1)
