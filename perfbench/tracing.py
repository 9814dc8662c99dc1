"""Span recording around library calls, and self-time aggregation.

A span is [name, parent index, start, end, points]: parent is -1 for a
root span, and points collects the torus points that budget charges made
while the span was the innermost enumerating span open.  Spans stay in
memory until the traced process ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        """fn, recording one span per call."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        """fn, counting calls only (for operators too hot to time)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def innermost(self, names) -> list | None:
        """The innermost open span whose name is in names."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return self.spans[idx]
        return None


def bind_everywhere(original, replacement, prefix: str = "arith_lg") -> list[str]:
    """Replace every module-level binding of `original` in the loaded
    modules under `prefix`, so callers that did `from x import f` see
    the replacement too.  Returns the rebound names as module.attr."""
    bound = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append(f"{modname}.{attr}")
    return bound


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, points.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for (name, _, start, end, points), inner in zip(spans, child):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "points": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - inner
        agg["points"] += points
    return out


def points_under(spans, name: str, parent_name: str) -> int:
    """Points of `name` spans whose direct parent is a `parent_name` span."""
    return sum(points for n, parent, _, _, points in spans
               if n == name and parent >= 0 and spans[parent][0] == parent_name)
