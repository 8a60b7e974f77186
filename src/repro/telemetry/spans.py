"""Span-based tracing with Chrome trace-event / Perfetto export.

``span("dslash")`` times a region; spans nest (a module-level stack tracks
the open path), survive exceptions (``__exit__`` always closes and records,
stamping an ``error`` arg), and are cheap enough to wrap solver-level and
trajectory-level regions unconditionally — the mode check inside
``__enter__``/``__exit__`` makes an off-mode span two attribute loads and
two branches.

In ``counters`` mode a closing span accumulates ``time/<name>`` (seconds)
and ``calls/<name>`` in the global registry — the data behind the
:func:`repro.telemetry.report` breakdown table.  In ``trace`` mode it
additionally appends one complete ("X") event to the process trace buffer, which
:func:`export_chrome_trace` serialises in the Chrome trace-event JSON
format (the ``{"traceEvents": [...]}`` envelope with ``ph``/``ts``/``dur``
in microseconds) that ``chrome://tracing`` and Perfetto load directly.
Comm events (:mod:`repro.comm.trace`) enter the same buffer as instant
("i") events, so halo messages and collectives line up under the solver
spans that caused them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE

__all__ = [
    "TraceBuffer",
    "get_trace_buffer",
    "span",
    "instant",
    "counter_event",
    "current_span_path",
    "export_chrome_trace",
    "save_chrome_trace",
]

#: Trace-buffer cap: a runaway trace-mode loop drops events (counted) past
#: this instead of exhausting memory.
MAX_EVENTS = 1_000_000


class TraceBuffer:
    """An append-only list of Chrome-trace events with a hard cap.

    Events are stored as ready-to-serialise dicts; timestamps are
    microseconds relative to the buffer epoch (``perf_counter_ns`` at
    construction or last :meth:`clear`), which keeps the JSON small and is
    exactly what the trace-event format expects.
    """

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.max_events = int(max_events)
        self.events: list[dict] = []
        self.dropped = 0
        self.epoch_ns = time.perf_counter_ns()

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self.epoch_ns = time.perf_counter_ns()

    def _push(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def ts_us(self, t_ns: int) -> float:
        return (t_ns - self.epoch_ns) / 1000.0

    def add_complete(
        self,
        name: str,
        t0_ns: int,
        t1_ns: int,
        cat: str = "repro",
        tid: int = 0,
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": self.ts_us(t0_ns),
            "dur": (t1_ns - t0_ns) / 1000.0,
            "pid": os.getpid(),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._push(event)

    def add_instant(
        self, name: str, cat: str = "repro", tid: int = 0, args: dict | None = None
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": self.ts_us(time.perf_counter_ns()),
            "pid": os.getpid(),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._push(event)

    def add_counter(self, name: str, values: dict[str, float], tid: int = 0) -> None:
        self._push(
            {
                "name": name,
                "cat": "repro",
                "ph": "C",
                "ts": self.ts_us(time.perf_counter_ns()),
                "pid": os.getpid(),
                "tid": tid,
                "args": dict(values),
            }
        )


#: The process-global trace buffer (one thread of control per process).
_BUFFER = TraceBuffer()

#: The open-span name stack; exception-safe by construction (``__exit__``
#: pops in all control flows, including unwinding).
_SPAN_STACK: list[str] = []


def get_trace_buffer() -> TraceBuffer:
    return _BUFFER


def current_span_path() -> str:
    """``"outer/inner"`` path of the open spans ("" outside any span)."""
    return "/".join(_SPAN_STACK)


class span:
    """Nestable, exception-safe timed region.

    >>> with span("dslash", mu=0):
    ...     pass

    Usable at any telemetry mode; at ``off`` it records nothing and skips
    the clock reads.  The measured duration is exposed as ``elapsed``
    (seconds) for callers that want the number regardless of mode, via
    ``always_time=True``.
    """

    __slots__ = ("name", "cat", "args", "elapsed", "always_time", "_t0", "_recording")

    def __init__(
        self, name: str, cat: str = "repro", always_time: bool = False, **args
    ) -> None:
        self.name = name
        self.cat = cat
        self.args = args or None
        self.elapsed = 0.0
        self.always_time = always_time
        self._t0 = 0
        self._recording = False

    def __enter__(self) -> "span":
        self._recording = STATE.active
        if self._recording:
            _SPAN_STACK.append(self.name)
        if self._recording or self.always_time:
            self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not (self._recording or self.always_time):
            return
        t1 = time.perf_counter_ns()
        self.elapsed = (t1 - self._t0) / 1e9
        if not self._recording:
            return
        _SPAN_STACK.pop()
        if STATE.counting:
            reg = get_registry()
            reg.add(f"time/{self.name}", self.elapsed)
            reg.add(f"calls/{self.name}", 1)
        if STATE.tracing:
            args = self.args
            if exc_type is not None:
                args = dict(args or {})
                args["error"] = exc_type.__name__
            _BUFFER.add_complete(self.name, self._t0, t1, cat=self.cat, args=args)


def instant(name: str, cat: str = "repro", **args) -> None:
    """Record an instant event (trace mode only; no-op otherwise)."""
    if STATE.tracing:
        _BUFFER.add_instant(name, cat=cat, args=args or None)


def counter_event(name: str, **values: float) -> None:
    """Record a Chrome counter ("C") event — e.g. a residual-vs-time series."""
    if STATE.tracing:
        _BUFFER.add_counter(name, values)


def export_chrome_trace(buffer: TraceBuffer | None = None) -> dict:
    """The Chrome trace-event JSON document for ``buffer`` (default: global).

    The envelope form (``{"traceEvents": [...]}``) is the one both
    ``chrome://tracing`` and Perfetto accept; a leading metadata ("M")
    event names the process.
    """
    buffer = buffer if buffer is not None else _BUFFER
    pid = os.getpid()
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    doc = {
        "traceEvents": meta + list(buffer.events),
        "displayTimeUnit": "ms",
    }
    if buffer.dropped:
        doc["otherData"] = {"dropped_events": buffer.dropped}
    return doc


def save_chrome_trace(path: str | Path, buffer: TraceBuffer | None = None) -> Path:
    """Write :func:`export_chrome_trace` JSON to ``path``."""
    path = Path(path)
    path.write_text(
        json.dumps(export_chrome_trace(buffer), indent=1) + "\n", encoding="utf-8"
    )
    return path
