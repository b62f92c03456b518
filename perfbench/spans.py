"""Spans recorded around the benchmark's own calls into finsym.

A traced run keeps every span in memory and writes them to a JSON-lines
file when it ends; the per-layer figures are then computed from that
file.  An untraced run uses :data:`OFF`, whose spans cost one attribute
lookup and one call.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class _Off:
    """Tracer stand-in for untraced runs: records nothing."""

    counting = False
    item = None

    def span(self, name, work=0):
        return _NULL

    def count(self, name, k=1):
        pass


OFF = _Off()


class _Span:
    __slots__ = ("tracer", "name", "work", "index", "parent", "start")

    def __init__(self, tracer, name, work):
        self.tracer = tracer
        self.name = name
        self.work = work

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1] if stack else -1
        self.index = len(tracer.spans)
        stack.append(self.index)
        tracer.spans.append(None)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        # a tuple of atoms, which the garbage collector stops tracking, so
        # a long trace does not slow every later collection
        tracer.spans[self.index] = (self.name, self.start, end, self.parent,
                                    tracer.item, self.work)
        return False


class Tracer:
    """In-memory span store.

    A span is ``(name, start, end, parent index, item id, work)``; work
    is a caller-supplied unit count (RK4 steps, for example).  Counters
    are only incremented while ``counting`` is set, which the runner does
    for exactly one round per workload so that counts repeat exactly.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.item = None
        self.counting = False
        self.counts: dict = {}

    def span(self, name, work=0):
        return _Span(self, name, work)

    def count(self, name, k=1):
        if self.counting:
            key = (self.item.split("/", 1)[0], name)
            self.counts[key] = self.counts.get(key, 0) + k

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "item": item, "work": work}) + "\n")
            for (workload, name), value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "workload": workload,
                                     "value": value}) + "\n")


def load_profile(path):
    """Aggregate a trace file into ``{(workload, name): totals}``.

    Self time is a span's duration minus the durations of its direct
    children.  Totals hold ``calls``, ``self_ms``, ``total_ms`` and
    ``work``; counter records come back as ``{(workload, name): value}``.
    """
    spans, counts = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "count" in rec:
                counts[(rec["workload"], rec["count"])] = rec["value"]
            else:
                spans.append(rec)
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] >= 0:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    totals: dict = {}
    for rec, children in zip(spans, child_time):
        workload = rec["item"].split("/", 1)[0]
        entry = totals.setdefault((workload, rec["name"]), {
            "calls": 0, "self_ms": 0.0, "total_ms": 0.0, "work": 0})
        duration = rec["end"] - rec["start"]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * (duration - children)
        entry["total_ms"] += 1e3 * duration
        entry["work"] += rec["work"]
    return totals, counts
