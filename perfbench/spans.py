"""In-memory spans around calls into riskbn, written out when the run ends."""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class Tracer:
    """Records one span per call: name, start, end, parent span and run id.

    A span's layer is the part of its name before the first dot
    (``data.load`` belongs to ``data``).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        totals: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + s["end"] - s["start"]
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"].split(".")[0]
                totals[parent] = totals.get(parent, 0.0) - (s["end"] - s["start"])
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}, indent=1) + "\n")


def span_cost(repeats: int = 2000) -> float:
    """Seconds of bookkeeping one span adds, measured on empty spans."""
    tracer = Tracer("calibration")
    start = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("x.empty"):
            pass
    return (time.perf_counter() - start) / repeats
