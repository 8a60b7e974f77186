"""Hot-path instrumentation helpers shared by operators and solvers.

These are the only telemetry functions that sit *inside* per-application
code paths, so they are written for minimal dispatch cost: the caller has
already checked ``STATE.active`` (one attribute load and branch — the
entire price of ``REPRO_TELEMETRY=off``), and everything label-related is
resolved once per operator and cached on the instance.

Counter names they emit (the counter-exactness goldens pin these):

``applies/<label>``
    Operator applications through ``LinearOperator.__call__``.
``flops/<label>``
    Nominal flops: ``applies x flops_per_apply``, community-convention
    counts (1320/site Wilson Dslash class).
``sites/<label>``
    Lattice sites processed (x ``Ls`` for 5-D domain-wall fields).
``batch/<label>/applies`` and ``batch/<label>/rhs``
    Batched (multi-RHS) operator applications and the RHS columns they
    carried — ``rhs / applies`` is the achieved mean batch width.
"""

from __future__ import annotations

import time

import numpy as np

from repro.telemetry.registry import get_registry
from repro.telemetry.spans import get_trace_buffer
from repro.telemetry.state import STATE

__all__ = [
    "operator_label",
    "record_applies",
    "timed_apply",
    "timed_apply_batch",
    "record_kernel_selection",
    "record_solve",
]


def operator_label(op) -> str:
    """The operator's counter label (cached; class name fallback)."""
    label = getattr(op, "telemetry_label", None)
    if label is None:
        label = type(op).__name__.lower()
        try:
            op.telemetry_label = label
        except AttributeError:
            pass
    return label


def record_applies(op, n: int) -> str:
    """Count ``n`` applications of ``op`` (caller checked ``STATE.counting``),
    wherever they ran; returns the label."""
    label = operator_label(op)
    reg = get_registry()
    reg.add(f"applies/{label}", n)
    reg.add(f"flops/{label}", op.flops_per_apply * n)
    sites = getattr(op, "telemetry_sites", 0)
    if sites:
        reg.add(f"sites/{label}", sites * n)
    return label


def timed_apply(op, x, out):
    """One instrumented operator application (caller checked ``STATE.active``).

    Counts nominal flops/sites/applies in ``counters`` mode and emits one
    complete trace event per application in ``trace`` mode.  The arithmetic
    is exactly the uninstrumented dispatch — telemetry only observes.
    """
    tracing = STATE.tracing
    if tracing:
        t0 = time.perf_counter_ns()
    result = op.apply(x) if out is None else op.apply_into(x, out)
    if STATE.counting:
        label = record_applies(op, 1)
        if tracing:
            get_trace_buffer().add_complete(
                label, t0, time.perf_counter_ns(), cat="operator"
            )
    return result


def timed_apply_batch(op, X, out, dagger=False):
    """One instrumented multi-RHS application over an ``(nrhs, ...)`` block.

    The per-RHS counters (applies/flops/sites) advance by ``nrhs`` so the
    counter-exactness goldens see a batched solve as exactly the same
    work as the equivalent looped solve; the ``batch/*`` pair records the
    batching itself.
    """
    nrhs = X.shape[0]
    tracing = STATE.tracing
    if tracing:
        t0 = time.perf_counter_ns()
    if out is None:
        out = np.empty_like(X)
    result = (
        op.apply_dagger_batch_into(X, out) if dagger else op.apply_batch_into(X, out)
    )
    if STATE.counting:
        label = record_applies(op, nrhs)
        reg = get_registry()
        reg.add(f"batch/{label}/applies", 1)
        reg.add(f"batch/{label}/rhs", nrhs)
        if tracing:
            get_trace_buffer().add_complete(
                label, t0, time.perf_counter_ns(), cat="operator"
            )
    return result


def record_kernel_selection(op) -> None:
    """Record which Dslash backend an operator resolved to (gauges).

    Called once at operator construction (no-op when telemetry is off),
    so ``perf_report show`` can attribute counter diffs to the kernel in
    use.  Gauges, not counters: the selection is a fact about the run,
    not an accumulating quantity, and the counter-exactness goldens stay
    backend-independent.

    ``kernel/<label>/backend/<kernel_name>``
        1.0 for the backend the operator constructed.
    """
    if not STATE.counting:
        return
    name = getattr(op, "kernel_name", None)
    if not name:
        return
    get_registry().set_gauge(f"kernel/{operator_label(op)}/backend/{name}", 1.0)


def record_solve(
    label: str,
    iterations: int,
    converged: bool,
    residual: float,
    linalg_flops: int = 0,
    restarts: int = 0,
    inner_iterations: int = 0,
) -> None:
    """Per-solve counter bundle (call unconditionally; no-op when off).

    ``restarts`` counts guard-driven reliable updates / restarts — the
    "solver work redone" number the campaign metrics surface.
    """
    if not STATE.counting:
        return
    reg = get_registry()
    base = f"solver/{label}"
    reg.add(f"{base}/solves", 1)
    reg.add(f"{base}/iterations", iterations)
    if linalg_flops:
        reg.add(f"{base}/linalg_flops", linalg_flops)
    if restarts:
        reg.add(f"{base}/restarts", restarts)
    if inner_iterations:
        reg.add(f"{base}/inner_iterations", inner_iterations)
    if not converged:
        reg.add(f"{base}/failures", 1)
    reg.observe(f"{base}/iterations_per_solve", iterations)
    reg.set_gauge(f"{base}/last_residual", residual)
