"""Span tracing from outside the program.

The traced run records one span per layer-boundary call by wrapping bound
methods on the instances the harness builds (or is handed through a public
injection point).  Nothing in ``src/`` is edited, flagged or switched: a
wrapper is an instance attribute shadowing the class method, so Python's
normal lookup routes ``self.apply_into(...)`` calls made *inside* the
library through the span as well.

A span is ``[name, layer, start, end, parent, op_id]``; all spans of one
timed operation share ``op_id``.  A layer's *self time* is its spans'
duration minus the part of that interval its children cover (the union,
so overlapping children are not subtracted twice).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

__all__ = ["NAME", "LAYER", "START", "END", "PARENT", "OP", "Tracer", "NullTracer",
           "span_cost_s", "self_times", "aggregate", "chrome_trace", "save_chrome_trace"]

NAME, LAYER, START, END, PARENT, OP = range(6)

#: Spans written to the Chrome trace file; the rest are counted, not written.
_MAX_TRACE_EVENTS = 200_000


class NullTracer:
    """The untraced run: every hook is a pass-through."""

    enabled = False
    spans: tuple = ()
    op_types: tuple = ()

    def begin_op(self, name: str, layer: str | None = None) -> int:
        return -1

    def end_op(self) -> None:
        pass

    def call(self, name, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, obj, attr, name, layer) -> None:
        pass

    def wrap_kernel(self, owner, name) -> None:
        pass


class _TracedKernel:
    """A hopping kernel with its two entry points timed.

    Forwards everything else (``invalidate``, ``name``, ``threads``) so the
    operator cannot tell the difference.
    """

    def __init__(self, tracer: "Tracer", kernel, name: str) -> None:
        self._tracer = tracer
        self._kernel = kernel
        self._name = name
        batch = getattr(kernel, "apply_batch_into", None)
        if batch is not None:
            self.apply_batch_into = self._batch
        self._batch_fn = batch

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, "kernels", self._kernel, *args, **kwargs)

    def _batch(self, *args, **kwargs):
        return self._tracer.call(
            self._name + "_batch", "kernels", self._batch_fn, *args, **kwargs
        )

    def __getattr__(self, item):
        return getattr(self._kernel, item)


class Tracer:
    """In-memory span recorder (single-threaded call stacks)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self.op_types: list[str] = []  # op_id -> op type name

    # -- recording -------------------------------------------------------------

    def begin_op(self, name: str, layer: str | None = None) -> int:
        """Open the root span of one timed operation; returns its ``op_id``."""
        self._op_id += 1
        self.op_types.append(name)
        self._stack = [len(self.spans)]
        self.spans.append([name, layer, time.perf_counter(), 0.0, -1, self._op_id])
        return self._op_id

    def end_op(self) -> None:
        self.spans[self._stack[0]][END] = time.perf_counter()
        self._stack = []

    def call(self, name, layer, fn, *args, **kwargs):
        if not self._stack:  # outside any op (set-up, verification): not recorded
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, layer, 0.0, 0.0, self._stack[-1], self._op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj, attr: str, name: str, layer: str | None) -> None:
        """Shadow ``obj.attr`` (a bound method) with a span-recording wrapper."""
        fn = getattr(obj, attr)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        setattr(obj, attr, traced)

    def wrap_kernel(self, owner, name: str) -> None:
        """Time the hopping kernel an operator obtained from ``make_kernel``."""
        if not isinstance(owner._kernel, _TracedKernel):
            owner._kernel = _TracedKernel(self, owner._kernel, name)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span (seconds), for the overhead estimate."""
    probe = Tracer()
    probe.begin_op("probe")
    noop = (lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call("x", None, noop)
    traced = time.perf_counter() - t0
    probe.end_op()
    return max(traced - bare, 0.0) / n


# -- analysis --------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        kids = children.get(idx)
        out.append(dur - _union_length(kids, rec[START], rec[END]) if kids else dur)
    return out


def aggregate(spans: list[list], op_types: list[str]) -> dict:
    """Per op type: op count, wall, and per span name self/total/calls.

    ``{"<op type>": {"ops": n, "wall": s, "spans": {name: {"layer": l,
    "self": s, "total": s, "calls": n}}}}``; the op's root span is included
    under its own name.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for rec, self_s in zip(spans, selfs):
        bucket = out.setdefault(
            op_types[rec[OP]], {"ops": 0, "wall": 0.0, "spans": {}}
        )
        if rec[PARENT] < 0:
            bucket["ops"] += 1
            bucket["wall"] += rec[END] - rec[START]
        cell = bucket["spans"].setdefault(
            rec[NAME], {"layer": rec[LAYER], "self": 0.0, "total": 0.0, "calls": 0}
        )
        cell["self"] += self_s
        cell["total"] += rec[END] - rec[START]
        cell["calls"] += 1
    return out


def chrome_trace(spans: list[list], op_types: list[str]) -> dict:
    """The Chrome trace-event document (``chrome://tracing`` / Perfetto)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    epoch = spans[0][START]
    pid = os.getpid()
    events = []
    for idx, rec in enumerate(spans[:_MAX_TRACE_EVENTS]):
        events.append(
            {
                "name": rec[NAME],
                "cat": rec[LAYER] or "harness",
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": (rec[START] - epoch) * 1e6,
                "dur": (rec[END] - rec[START]) * 1e6,
                "args": {
                    "id": idx,
                    "parent": rec[PARENT],
                    "op_id": rec[OP],
                    "op": op_types[rec[OP]],
                },
            }
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if len(spans) > _MAX_TRACE_EVENTS:
        doc["otherData"] = {"dropped_spans": len(spans) - _MAX_TRACE_EVENTS}
    return doc


def save_chrome_trace(path: Path, spans: list[list], op_types: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, op_types)) + "\n", encoding="utf-8")
