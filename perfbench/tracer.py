"""Spans recorded from outside the program by wrapping public functions.

Each wrapped call records its name, its parent (the index of the innermost
wrapped call still open when it began, or -1), and its start and end. A
span's self time is its duration minus the durations of its direct
children. Spans stay in memory; :func:`summarize` folds them per name once the
run is over.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter


class Tracer:
    """Records spans into flat arrays, which the garbage collector does not
    scan, so tracing a run of ~10^5 calls adds no collector work."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a method on a class)
        with a wrapper that records one span per call under ``name``."""
        fn = owner.__dict__[attr]
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                open_.pop()

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def spans(self):
        """(name, parent index, start, end) of every span, in call order."""
        names = self.names
        return [
            (names[n], p, s, e)
            for n, p, s, e in zip(self.name_of, self.parent, self.start, self.end)
        ]


def summarize(spans, percentiles_of=()) -> dict:
    """Per span name: calls, total and self seconds, call counts by parent
    name, and for names in ``percentiles_of`` the p50/p99 call duration.

    Also returns ``roots_s``, the summed duration of spans without a parent,
    which the caller compares against the wall time it measured outside, and
    ``min_self_s``, negative only if a child span outlasted its parent.
    """
    child_s = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layers: dict[str, dict] = {}
    durations: dict[str, list[float]] = {n: [] for n in percentiles_of}
    roots_s = 0.0
    min_self_s = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        total = end - start
        self_s = total - child_s[i]
        min_self_s = min(min_self_s, self_s)
        entry = layers.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += total
        entry["self_s"] += self_s
        parent_name = spans[parent][0] if parent >= 0 else "-"
        entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
        if parent < 0:
            roots_s += total
        if name in durations:
            durations[name].append(total)
    for name, values in durations.items():
        if len(values) >= 2:
            cuts = statistics.quantiles(values, n=100)
            layers[name]["p50_s"] = cuts[49]
            layers[name]["p99_s"] = cuts[98]
    return {"layers": layers, "roots_s": roots_s, "min_self_s": min_self_s}
