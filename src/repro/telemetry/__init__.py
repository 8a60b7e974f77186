"""repro.telemetry — the unified observability layer.

One low-overhead subsystem threaded through kernels, solvers, comm, HMC,
guard and campaign, switched by ``REPRO_TELEMETRY``:

``off`` (default)
    Hot paths pay one attribute check; nothing is recorded and nothing in
    the physics changes (bit-for-bit, asserted by the parity tests).
``counters``
    A process-local :class:`MetricsRegistry` accumulates named counters,
    gauges and histograms — nominal flops (1320/site Wilson Dslash class),
    lattice sites, halo bytes, allreduce count, solver iterations and
    restarts, guard probes/heals, checkpoint bytes.
``trace``
    Counters plus span-based tracing: nestable, exception-safe
    :func:`span` regions and comm instants, exported as Chrome
    trace-event / Perfetto-compatible JSON via
    :func:`export_chrome_trace`, and a human :func:`report` table.

Quickstart::

    from repro import telemetry

    with telemetry.telemetry_mode("counters"):
        result = cg(dirac.normal_op(), rhs)
    print(telemetry.report())
    telemetry.save_snapshot("metrics.json")

Per-rank aggregation: a closing process communicator
(:class:`~repro.comm.pool.RankPoolComm`) gathers every rank's registry
into the master's as ``rank<r>/...`` counters.
The ``repro.tools.perf_report`` CLI diffs saved snapshots against a
baseline, which is how CI holds perf PRs to these numbers.
"""

from repro.telemetry.state import (
    TELEMETRY_ENV_VAR,
    TELEMETRY_MODES,
    STATE,
    get_mode,
    resolve_mode,
    set_mode,
    telemetry_mode,
)
from repro.telemetry.registry import (
    SNAPSHOT_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
    add,
    get_registry,
    inc,
    load_snapshot,
    observe,
    reset,
    save_snapshot,
    set_gauge,
    snapshot,
)
from repro.telemetry.spans import (
    TraceBuffer,
    counter_event,
    current_span_path,
    export_chrome_trace,
    get_trace_buffer,
    instant,
    save_chrome_trace,
    span,
)
from repro.telemetry.report import Regression, diff_snapshots, report

__all__ = [
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_MODES",
    "STATE",
    "get_mode",
    "resolve_mode",
    "set_mode",
    "telemetry_mode",
    "SNAPSHOT_SCHEMA",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "add",
    "get_registry",
    "inc",
    "load_snapshot",
    "observe",
    "reset",
    "save_snapshot",
    "set_gauge",
    "snapshot",
    "TraceBuffer",
    "counter_event",
    "current_span_path",
    "export_chrome_trace",
    "get_trace_buffer",
    "instant",
    "save_chrome_trace",
    "span",
    "Regression",
    "diff_snapshots",
    "report",
]


def full_reset() -> None:
    """Clear the global registry *and* trace buffer (tests, fresh windows)."""
    reset()
    get_trace_buffer().clear()
