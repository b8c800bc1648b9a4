"""Spans recorded around library calls, kept in memory, and what they add up to.

A span has a name, a start, an end and the span that was open when it began
(its parent). Spans stay in a list until the run ends; then they can be
written as JSON lines. A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and counters for one run of one workload."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter_ns(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            for name, value in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "value": value}) + "\n")


def self_times(spans: list[dict]) -> list[int]:
    """Self time in ns of each span: its duration minus its children's cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, median and p99 duration, busy and self time (s)."""
    selfs = self_times(spans)
    grouped: dict[str, list[tuple[int, int]]] = {}
    for s, own in zip(spans, selfs):
        grouped.setdefault(s["name"], []).append((s["end"] - s["start"], own))
    table = {}
    for name, rows in grouped.items():
        durations = [d / 1e9 for d, _ in rows]
        table[name] = {"count": len(rows),
                       "median_s": statistics.median(durations),
                       "p99_s": percentile(durations, 99),
                       "busy_s": sum(durations),
                       "self_s": sum(own for _, own in rows) / 1e9}
    return table


def busy_under(spans: list[dict], name: str, parent_name: str) -> float:
    """Seconds in `name` spans whose parent span is named `parent_name`."""
    by_id = {s["id"]: s for s in spans}
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and s["parent"] is not None
               and by_id[s["parent"]]["name"] == parent_name) / 1e9
