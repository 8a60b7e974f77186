"""A coalescing solve queue: async submit -> batched solve -> futures.

The serving pattern: callers :meth:`~SolveQueue.submit` individual
``M x = b`` requests and get a :class:`concurrent.futures.Future` back
immediately.  The queue groups *compatible* requests — same operator
instance, same solve parameters, same field shape/dtype — and executes
each group as one multi-RHS :func:`~repro.solvers.block.solve_wilson_batch`,
so a burst of 12 propagator-source requests costs one link-streaming
batched solve instead of 12 independent ones.

Determinism
-----------
Batch composition is a pure function of arrival order and ``max_nrhs``:
groups dispatch in order of their *first* arrival, requests within a
group stay FIFO, and chunks split at ``max_nrhs`` (the
``REPRO_BATCH_NRHS`` knob, default 12).  A seeded submission order
therefore reproduces byte-identical batch layouts — and since the
batched solve is bit-identical per column, byte-identical solutions
(asserted by the serve tests).

Two execution modes share that dispatch logic:

* **synchronous** — call :meth:`~SolveQueue.flush` to drain everything
  pending on the caller's thread (what tests, benchmarks, and batch
  scripts use);
* **background** — :meth:`~SolveQueue.start` a dispatcher thread that
  waits ``coalesce_window`` seconds after the first pending request for
  the rest of a burst to arrive, then drains.  The wait is the
  batching/latency trade and is surfaced as telemetry.

Telemetry counters (when ``REPRO_TELEMETRY`` is on):

``serve/requests``
    Requests submitted.
``serve/batches`` / ``serve/batched_rhs``
    Executed batches and the RHS columns they carried —
    ``batched_rhs / batches`` is the achieved coalescing factor.
``serve/coalesce_wait``
    Seconds the background dispatcher spent holding requests open for
    coalescing (absent in synchronous ``flush`` mode, which never
    waits).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.solvers.block import solve_wilson_batch
from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE

__all__ = [
    "BATCH_NRHS_ENV_VAR",
    "DEFAULT_MAX_NRHS",
    "QueueStopped",
    "SolveRequest",
    "SolveQueue",
]


class QueueStopped(RuntimeError):
    """The queue was stopped without draining; this request was abandoned.

    Delivered through the pending futures by :meth:`SolveQueue.stop`
    (``drain=False``) so callers blocked in ``future.result()`` fail fast
    with an explicit cause instead of waiting forever on a solve that no
    dispatcher will ever run.
    """

#: Maximum RHS columns coalesced into one batched solve.
BATCH_NRHS_ENV_VAR = "REPRO_BATCH_NRHS"

#: Default batch width: one propagator's worth of sources (4 spin x 3 colour).
DEFAULT_MAX_NRHS = 12


def _resolve_max_nrhs(max_nrhs: int | None) -> int:
    """Batch-width knob: explicit arg > ``$REPRO_BATCH_NRHS`` > 12."""
    if max_nrhs is None:
        env = os.environ.get(BATCH_NRHS_ENV_VAR, "").strip()
        max_nrhs = int(env) if env else DEFAULT_MAX_NRHS
    if max_nrhs < 1:
        raise ValueError(f"{BATCH_NRHS_ENV_VAR} must be >= 1, got {max_nrhs}")
    return int(max_nrhs)


@dataclass
class SolveRequest:
    """One pending solve: the payload plus its delivery future."""

    operator: object
    b: np.ndarray | None  # the submit copy, dropped once its batch is stacked
    tol: float
    max_iter: int
    future: Future
    seq: int
    submitted_at: float

    def compat_key(self) -> tuple:
        """Requests with equal keys may share a batched solve."""
        return (
            id(self.operator),
            float(self.tol),
            int(self.max_iter),
            self.b.shape,
            self.b.dtype.str,
        )


class SolveQueue:
    """Coalesce compatible solve requests into batched multi-RHS solves.

    Parameters
    ----------
    max_nrhs:
        Maximum columns per batch (``None``: ``$REPRO_BATCH_NRHS``,
        then 12).
    coalesce_window:
        Seconds the background dispatcher waits after the first pending
        request before draining, so a burst coalesces instead of
        dribbling out as single-RHS solves.  Ignored by :meth:`flush`.
    solver:
        Batched solver ``solver(operator, B, tol=..., max_iter=...) ->
        list[SolveResult]``; defaults to :func:`solve_wilson_batch`.
    """

    def __init__(
        self,
        max_nrhs: int | None = None,
        coalesce_window: float = 0.01,
        solver=None,
    ) -> None:
        self.max_nrhs = _resolve_max_nrhs(max_nrhs)
        self.coalesce_window = float(coalesce_window)
        self._solver = solver if solver is not None else solve_wilson_batch
        self._lock = threading.Lock()
        self._pending: list[SolveRequest] = []
        self._seq = 0
        self._wake = threading.Event()
        self._stop_flag = threading.Event()
        self._thread: threading.Thread | None = None

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        operator,
        b: np.ndarray,
        tol: float = 1e-8,
        max_iter: int = 5000,
    ) -> Future:
        """Enqueue ``operator x = b``; returns the future of its
        :class:`~repro.solvers.base.SolveResult`.

        The right-hand side is copied at submission, so callers may
        reuse their buffer immediately; the copy is dropped as soon as
        its batch's block is stacked.
        """
        future: Future = Future()
        with self._lock:
            req = SolveRequest(
                operator=operator,
                b=np.array(b, copy=True),
                tol=tol,
                max_iter=max_iter,
                future=future,
                seq=self._seq,
                submitted_at=time.perf_counter(),
            )
            self._seq += 1
            self._pending.append(req)
        if STATE.counting:
            get_registry().add("serve/requests", 1)
        self._wake.set()
        return future

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- dispatch --------------------------------------------------------------

    def _take_batches(self) -> list[list[SolveRequest]]:
        """Drain the pending list into deterministic batches.

        Groups keyed by compatibility in order of first arrival, FIFO
        within a group, chunked at ``max_nrhs``.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        if not pending:
            return []
        groups: dict[tuple, list[SolveRequest]] = {}
        for req in pending:  # already in seq order
            groups.setdefault(req.compat_key(), []).append(req)
        batches = []
        for reqs in groups.values():
            for start in range(0, len(reqs), self.max_nrhs):
                batches.append(reqs[start : start + self.max_nrhs])
        return batches

    def _run_batch(self, batch: list[SolveRequest]) -> None:
        head = batch[0]
        B = np.stack([req.b for req in batch])
        for req in batch:
            req.b = None  # B holds the payload now; drop the submit copies
        if STATE.counting:
            reg = get_registry()
            reg.add("serve/batches", 1)
            reg.add("serve/batched_rhs", len(batch))
        try:
            results = self._solver(
                head.operator, B, tol=head.tol, max_iter=head.max_iter
            )
        except BaseException as exc:  # deliver the failure, don't lose it
            for req in batch:
                req.future.set_exception(exc)
            return
        for req, res in zip(batch, results):
            req.future.set_result(res)

    def flush(self) -> int:
        """Synchronously solve everything pending; returns batches executed."""
        batches = self._take_batches()
        for batch in batches:
            self._run_batch(batch)
        return len(batches)

    # -- background dispatcher -------------------------------------------------

    def start(self) -> "SolveQueue":
        """Start the background dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop_flag.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="solve-queue", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the dispatcher (idempotent — extra calls are no-ops).

        With ``drain`` (the default) everything still pending is solved
        synchronously first.  With ``drain=False`` pending requests are
        *failed*: their futures receive :class:`QueueStopped`, so a caller
        blocked in ``future.result()`` gets an explicit error rather than
        a hang.  Either way the queue is reusable afterwards via
        :meth:`start`.
        """
        self._stop_flag.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        if drain:
            self.flush()
            return
        with self._lock:
            pending, self._pending = self._pending, []
        for req in pending:
            req.future.set_exception(
                QueueStopped(
                    f"solve queue stopped undrained with {len(pending)} "
                    f"request(s) pending"
                )
            )

    def _dispatch_loop(self) -> None:
        while not self._stop_flag.is_set():
            self._wake.wait(timeout=0.1)
            self._wake.clear()
            if not self.pending_count():
                continue
            # Hold the burst open so followers coalesce into the batch.
            if self.coalesce_window > 0.0:
                waited0 = time.perf_counter()
                self._stop_flag.wait(timeout=self.coalesce_window)
                if STATE.counting:
                    get_registry().add(
                        "serve/coalesce_wait", time.perf_counter() - waited0
                    )
            if self._stop_flag.is_set():
                break  # stop() owns the pending queue now: drain or fail
            self.flush()

    def __enter__(self) -> "SolveQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
