"""In-memory span recorder for the traced benchmark run.

A span is [id, name, trace, parent, start, end] with perf_counter times.
Spans opened in one round share the round's trace id; a span opened
inside another records it as parent.  Counters (summed) and peaks (maxima)
sit beside the spans, so that per-unit figures (per trial, per
distribution) are formed where the work is counted.  Everything stays
in memory until `write` at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.trace = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, self.trace, self._stack[-1] if self._stack else None,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def seconds(self, name: str) -> float:
        """Total duration of all spans with this name."""
        return sum(s[5] - s[4] for s in self.spans if s[1] == name)

    def per(self, name: str, unit: str, scale: float = 1.0) -> float:
        """Span time per counted unit, scaled; 0 when nothing was counted."""
        n = self.counts.get(unit, 0)
        return scale * self.seconds(name) / n if n else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "peaks": self.peaks}, fh)
            fh.write("\n")
