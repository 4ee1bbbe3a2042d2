"""Spans around calls into renergy's layers, recorded from outside the package.

A layer function is wrapped where its caller looks it up, for example
``renergy.coverage.field_values``, the global that ``run_trials_chunk``
resolves at call time, so the library itself is untouched. Each call records one span:
name, start, end and the span that was open when it began. Spans live in flat
arrays in memory; the per-layer figures are derived from them when the run
ends. Self time is a span's duration minus the durations of its direct
children, which never overlap because the traced process is single-threaded.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _lookup(module: str, qualname: str):
    return getattr(importlib.import_module(module), qualname)


class _Traced:
    """Callable stand-in for one library function."""

    def __init__(self, tracer: "Tracer", fn, name_id: int, count):
        self._tracer = tracer
        self._fn = fn
        self._name_id = name_id
        self._count = count

    def __call__(self, *args, **kwargs):
        t = self._tracer
        idx = len(t.start)
        t.name_id.append(self._name_id)
        t.parent.append(t.stack[-1] if t.stack else -1)
        t.end.append(0.0)
        t.stack.append(idx)
        t.start.append(perf_counter())
        try:
            result = self._fn(*args, **kwargs)
        finally:
            t.end[idx] = perf_counter()
            t.stack.pop()
        if self._count is not None:
            self._count(t.counters, result, *args)
        return result

    def __reduce__(self):
        # Pool workers receive the plain library function: the parent cannot
        # collect their spans, and the wrapper is not importable by name.
        return _lookup, (self._fn.__module__, self._fn.__qualname__)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._targets: list[tuple[object, str, int, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    def add(self, module, attr: str, name: str, count=None) -> None:
        """Trace module.attr as spans called `name` while installed.

        count(counters, result, *args), when given, adds work counts after
        each call."""
        if name not in self.names:
            self.names.append(name)
        self._targets.append((module, attr, self.names.index(name), count))

    def install(self) -> None:
        """Swap every added function for its traced stand-in (tracing on)."""
        for module, attr, name_id, count in self._targets:
            original = getattr(module, attr)
            setattr(module, attr, _Traced(self, original, name_id, count))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every original function back (tracing off)."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end)}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total, self and children seconds, the first
        call's duration, and the calls and seconds made directly under each
        parent name (``under``)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        children = np.zeros(len(dur))
        np.add.at(children, s["parent"][has_parent], dur[has_parent])
        parent_name = np.full(len(dur), -1)
        parent_name[has_parent] = s["name_id"][s["parent"][has_parent]]
        out = {}
        for nid, name in enumerate(self.names):
            mine = s["name_id"] == nid
            calls = int(mine.sum())
            under = {}
            for p in np.unique(parent_name[mine]):
                if p >= 0:
                    sel = mine & (parent_name == p)
                    under[self.names[p]] = {"calls": int(sel.sum()),
                                            "seconds": float(dur[sel].sum())}
            out[name] = {
                "calls": calls,
                "total_s": float(dur[mine].sum()),
                "self_s": float((dur - children)[mine].sum()),
                "children_s": float(children[mine].sum()),
                "first_s": float(dur[mine][0]) if calls else 0.0,
                "under": under,
            }
        return out
