"""Tier-1 tests for the coalescing solve queue (``repro.serve``).

The serving contract: batch composition is a *pure function* of arrival
order and ``max_nrhs`` — groups dispatch in first-arrival order, FIFO
within a group, chunks split at the width cap — and because the batched
solve is bit-identical per column, a seeded submission order reproduces
byte-identical solutions run-to-run.  Plus the operational surface:
futures, exception delivery, the ``REPRO_BATCH_NRHS`` knob, background
dispatch, telemetry counters, and the ``repro.tools.serve`` CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, point_source
from repro.lattice import Lattice4D
from repro.serve import (
    BATCH_NRHS_ENV_VAR,
    DEFAULT_MAX_NRHS,
    QueueStopped,
    SolveQueue,
)
from repro.solvers import solve_wilson_batch
from repro.solvers.base import SolveResult
from repro.telemetry import full_reset, set_mode, telemetry_mode
from repro.telemetry.registry import get_registry
from repro.tools.serve import main as serve_main

DIMS = (2, 2, 2, 2)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    set_mode("off")
    full_reset()
    yield
    set_mode("off")
    full_reset()


@pytest.fixture(scope="module")
def lat():
    return Lattice4D(DIMS)


@pytest.fixture(scope="module")
def dirac(lat):
    return WilsonDirac(GaugeField.warm(lat, rng=11), 0.3)


def _sources(lat, n, seed=0):
    srcs = [
        point_source(lat, (0, 0, 0, 0), spin=s, color=c)
        for s in range(4)
        for c in range(3)
    ]
    order = np.random.default_rng(seed).permutation(len(srcs))
    return [srcs[order[i % len(srcs)]] for i in range(n)]


def _echo_solver(record):
    """Instant fake solver that logs each batch it receives."""

    def solver(op, B, tol, max_iter):
        record.append((op, B.copy()))
        return [
            SolveResult(
                x=B[i].copy(), converged=True, iterations=1, residual=0.0,
                history=[], operator_applies=1, flops=0, wall_time=0.0,
                label="echo",
            )
            for i in range(B.shape[0])
        ]

    return solver


# -- coalescing policy --------------------------------------------------------


class TestCoalescing:
    def test_chunking_at_max_nrhs(self, lat, dirac):
        record = []
        queue = SolveQueue(max_nrhs=3, solver=_echo_solver(record))
        for b in _sources(lat, 7):
            queue.submit(dirac, b)
        assert queue.pending_count() == 7
        assert queue.flush() == 3  # 3 + 3 + 1
        assert [B.shape[0] for _, B in record] == [3, 3, 1]
        assert queue.pending_count() == 0
        assert queue.flush() == 0  # idempotent on empty

    def test_groups_split_by_operator_in_first_arrival_order(self, lat, dirac):
        other = WilsonDirac(dirac.gauge, 0.7)
        record = []
        queue = SolveQueue(max_nrhs=12, solver=_echo_solver(record))
        srcs = _sources(lat, 6)
        # Interleave B A A B A B: group A first arrives second but... group
        # order follows *first arrival*, so B's batch dispatches first.
        ops = [other, dirac, dirac, other, dirac, other]
        for op, b in zip(ops, srcs):
            queue.submit(op, b)
        assert queue.flush() == 2
        assert record[0][0] is other and record[0][1].shape[0] == 3
        assert record[1][0] is dirac and record[1][1].shape[0] == 3

    def test_incompatible_params_do_not_coalesce(self, lat, dirac):
        record = []
        queue = SolveQueue(max_nrhs=12, solver=_echo_solver(record))
        b = _sources(lat, 1)[0]
        queue.submit(dirac, b, tol=1e-8)
        queue.submit(dirac, b, tol=1e-6)  # different tol
        queue.submit(dirac, b, tol=1e-8, max_iter=99)  # different max_iter
        queue.submit(dirac, b.astype(np.complex64), tol=1e-8)  # different dtype
        assert queue.flush() == 4

    def test_composition_deterministic_under_seeded_order(self, lat, dirac):
        """Same seeded arrival order -> byte-identical batch layouts."""
        other = WilsonDirac(dirac.gauge, 0.7)

        def run():
            record = []
            queue = SolveQueue(max_nrhs=4, solver=_echo_solver(record))
            rng = np.random.default_rng(99)
            srcs = _sources(lat, 10, seed=5)
            for i, b in enumerate(srcs):
                queue.submit(other if rng.random() < 0.4 else dirac, b)
            queue.flush()
            return [(op is other, B.tobytes()) for op, B in record]

        assert run() == run()

    def test_fifo_within_group(self, lat, dirac):
        record = []
        queue = SolveQueue(max_nrhs=12, solver=_echo_solver(record))
        srcs = _sources(lat, 5, seed=3)
        futures = [queue.submit(dirac, b) for b in srcs]
        queue.flush()
        (_, B), = record
        for i, (b, f) in enumerate(zip(srcs, futures)):
            assert np.array_equal(B[i], b)
            assert np.array_equal(f.result(timeout=0).x, b)  # echo solver

    def test_submit_copies_rhs(self, lat, dirac):
        record = []
        queue = SolveQueue(max_nrhs=12, solver=_echo_solver(record))
        b = _sources(lat, 1)[0].copy()
        want = b.copy()
        queue.submit(dirac, b)
        b[...] = 0  # caller clobbers its buffer after submit
        queue.flush()
        assert np.array_equal(record[0][1][0], want)

    def test_reused_buffer_does_not_alter_the_queued_solve(self, lat, dirac):
        """A real solve of a buffer the caller overwrote after ``submit`` is
        the solve of what was submitted, byte for byte."""
        srcs = _sources(lat, 3, seed=3)
        buf = np.empty_like(srcs[0])
        queue = SolveQueue(max_nrhs=12)
        futures = []
        for b in srcs:
            buf[...] = b
            futures.append(queue.submit(dirac, buf, tol=1e-8))
        buf[...] = np.nan
        queue.flush()
        direct = solve_wilson_batch(dirac, np.stack(srcs), tol=1e-8)
        for future, want in zip(futures, direct):
            assert future.result(timeout=0).x.tobytes() == want.x.tobytes()

    def test_queue_holds_no_payload_once_batched(self, lat, dirac):
        """The submit copies are dropped as soon as the batch block is
        stacked, before the solve runs, and nothing of them stays after."""
        import weakref

        copies, alive_during_solve = [], []

        def solver(op, B, **kwargs):
            alive_during_solve.extend(ref() is not None for ref in copies)
            return solve_wilson_batch(op, B, **kwargs)

        queue = SolveQueue(max_nrhs=12, solver=solver)
        for b in _sources(lat, 4):
            queue.submit(dirac, b)
        copies.extend(weakref.ref(req.b) for req in queue._pending)
        assert queue.flush() == 1
        assert alive_during_solve == [False] * 4
        assert all(ref() is None for ref in copies)
        assert queue.pending_count() == 0


# -- width-cap resolution -----------------------------------------------------


class TestMaxNrhs:
    def test_default(self):
        assert SolveQueue().max_nrhs == DEFAULT_MAX_NRHS == 12

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(BATCH_NRHS_ENV_VAR, "5")
        assert SolveQueue().max_nrhs == 5

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BATCH_NRHS_ENV_VAR, "5")
        assert SolveQueue(max_nrhs=2).max_nrhs == 2

    def test_invalid_raises(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            SolveQueue(max_nrhs=0)


# -- end-to-end solves --------------------------------------------------------


class TestSolves:
    def test_results_match_direct_batched_solve(self, lat, dirac):
        """The queue is pure dispatch: futures deliver exactly what one
        ``solve_wilson_batch`` call on the coalesced block produces."""
        srcs = _sources(lat, 4, seed=7)
        queue = SolveQueue(max_nrhs=12)
        futures = [queue.submit(dirac, b, tol=1e-8) for b in srcs]
        assert queue.flush() == 1
        results = [f.result(timeout=0) for f in futures]
        direct = solve_wilson_batch(dirac, np.stack(srcs), tol=1e-8)
        for res, want in zip(results, direct):
            assert res.converged
            assert res.iterations == want.iterations
            assert res.x.tobytes() == want.x.tobytes()

    def test_solutions_deterministic_run_to_run(self, lat, dirac):
        def run():
            queue = SolveQueue(max_nrhs=3)
            futures = [
                queue.submit(dirac, b, tol=1e-8) for b in _sources(lat, 5, seed=13)
            ]
            queue.flush()
            return b"".join(f.result(timeout=0).x.tobytes() for f in futures)

        assert run() == run()

    def test_background_dispatcher(self, lat, dirac):
        with SolveQueue(max_nrhs=12, coalesce_window=0.01) as queue:
            futures = [queue.submit(dirac, b) for b in _sources(lat, 3)]
            results = [f.result(timeout=120) for f in futures]
        assert all(r.converged for r in results)

    def test_stop_drains_pending(self, lat, dirac):
        queue = SolveQueue(max_nrhs=12, coalesce_window=10.0)
        queue.start()
        future = queue.submit(dirac, _sources(lat, 1)[0])
        # The window is far longer than the test: stop() must drain.
        queue.stop(drain=True)
        assert future.result(timeout=0).converged

    def test_stop_undrained_fails_pending_futures(self, lat, dirac):
        queue = SolveQueue(max_nrhs=12, coalesce_window=10.0)
        queue.start()
        futures = [queue.submit(dirac, b) for b in _sources(lat, 2)]
        queue.stop(drain=False)
        for f in futures:
            with pytest.raises(QueueStopped, match="stopped undrained"):
                f.result(timeout=0)
        assert queue.pending_count() == 0

    def test_stop_is_idempotent(self, lat, dirac):
        queue = SolveQueue(max_nrhs=12, coalesce_window=10.0)
        queue.start()
        future = queue.submit(dirac, _sources(lat, 1)[0])
        queue.stop(drain=True)
        queue.stop(drain=True)  # never started again: must be a no-op
        queue.stop(drain=False)
        assert future.result(timeout=0).converged
        # and the queue is reusable after a stop
        queue.start()
        again = queue.submit(dirac, _sources(lat, 1)[0])
        queue.stop(drain=True)
        assert again.result(timeout=0).converged

    def test_stop_undrained_without_start(self, lat, dirac):
        # drain=False must also fail requests that never saw a dispatcher
        queue = SolveQueue(max_nrhs=12)
        future = queue.submit(dirac, _sources(lat, 1)[0])
        queue.stop(drain=False)
        with pytest.raises(QueueStopped):
            future.result(timeout=0)

    def test_solver_failure_delivered_to_futures(self, lat, dirac):
        def broken(op, B, tol, max_iter):
            raise RuntimeError("boom")

        queue = SolveQueue(max_nrhs=12, solver=broken)
        futures = [queue.submit(dirac, b) for b in _sources(lat, 2)]
        queue.flush()
        for f in futures:
            with pytest.raises(RuntimeError, match="boom"):
                f.result(timeout=0)


# -- telemetry ----------------------------------------------------------------


class TestServeTelemetry:
    def test_counters(self, lat, dirac):
        with telemetry_mode("counters"):
            queue = SolveQueue(max_nrhs=3, solver=_echo_solver([]))
            for b in _sources(lat, 7):
                queue.submit(dirac, b)
            queue.flush()
            counters = get_registry().counters()
        assert counters["serve/requests"] == 7
        assert counters["serve/batches"] == 3
        assert counters["serve/batched_rhs"] == 7
        # Synchronous flush never waits, so the latency counter is absent
        # (keeps counter-exactness baselines deterministic).
        assert "serve/coalesce_wait" not in counters

    def test_off_mode_counts_nothing(self, lat, dirac):
        queue = SolveQueue(max_nrhs=3, solver=_echo_solver([]))
        for b in _sources(lat, 4):
            queue.submit(dirac, b)
        queue.flush()
        assert get_registry().counters().get("serve/requests", 0) == 0


# -- CLI ----------------------------------------------------------------------


class TestServeCLI:
    def test_smoke_flush_mode(self, capsys):
        rc = serve_main(
            ["--dims", "2", "2", "2", "2", "--requests", "4", "--max-nrhs", "2",
             "--tol", "1e-6"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged 4/4" in out
        assert "batch width cap 2" in out

    def test_smoke_background_mode(self, capsys):
        rc = serve_main(
            ["--dims", "2", "2", "2", "2", "--requests", "3", "--background",
             "--tol", "1e-6"]
        )
        assert rc == 0
        assert "mode background" in capsys.readouterr().out
