"""In-memory span recorder for the traced run.

A span is one public call made by the benchmark: its name, start and end
(perf_counter seconds), the span that caused it, the op it belongs to, and
the counts measured on its result. Spans stay in memory until the run ends
and are then written as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ref: bool = False):
        """Record one call. `ref` marks a reference call: made only to split
        time between layers, outside the op's own work. Yields the dict that
        holds the span's counts; fill it after the call returns."""
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "ref": ref,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def layer_metrics(spans: list[dict], n_ops: int, names) -> dict[str, float]:
    """Per-layer metrics named `<span name>.<field>`, averaged per op.

    busy_s is the summed duration of the layer's spans; self_s is that minus
    the op's reference spans, which repeat the layer's public calls
    separately. A count is summed over the layer's spans; a field ending in
    `_ratio` is the mean over the spans that measured it. A layer the
    workload never calls reports 0.
    """
    ref_time: dict[int, float] = {}
    for record in spans:
        if record["ref"]:
            ref_time[record["op"]] = ref_time.get(record["op"], 0.0) + duration(record)
    out = {}
    for metric in names:
        layer, field = metric.rsplit(".", 1)
        matching = [r for r in spans if r["name"] == layer]
        if field == "busy_s":
            values = [duration(r) for r in matching]
        elif field == "self_s":
            values = [duration(r) - ref_time.get(r["op"], 0.0) for r in matching]
        else:
            values = [r["attrs"][field] for r in matching if field in r["attrs"]]
            if field.endswith("_ratio"):
                out[metric] = sum(values) / len(values) if values else 0.0
                continue
        out[metric] = sum(values) / n_ops
    return out
