"""Shm-specific drills: ``/dev/shm`` segment lifecycle and fault injection.

The backend bit-parity matrix (exchange/allreduce/operator/cg ×
rank grids × boundary phases × dtypes) lives in
``tests/test_comm_backends.py``, parametrised over every registered
backend — this module keeps only what is inherently about the shared
memory transport: segment unlinking, worker joining, and the
fault-injection hooks exercised against real ``/dev/shm`` state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.comm import RankGrid, ShmComm

LATTICE_SHAPE = (4, 4, 4, 4, 4, 3)


def _segment_names(prefix: str) -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        pytest.skip("no /dev/shm on this platform")
    return [n for n in os.listdir(shm_dir) if prefix in n]


def _rss_shmem_kb() -> int:
    """``RssShmem`` of this process: the shared pages it has faulted in."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    pytest.skip("no RssShmem in /proc/self/status on this platform")


class TestBlocks:
    def test_new_blocks_read_zeros_and_are_not_faulted_into_the_master(self):
        from repro.comm.shm import _attach_segment

        shape = (16, 16, 16, 8, 4, 3)  # 12.6 MB a rank
        nbytes = int(np.prod(shape)) * 16
        with ShmComm(RankGrid((2, 1, 1, 1))) as comm:
            before = _rss_shmem_kb()
            key = comm.new_key("z")
            views = comm.alloc_blocks(key, shape, np.complex128)
            only_ranks = comm.new_key("r")
            comm.alloc_rank_blocks(only_ranks, shape, np.complex128)
            # Declared, and nothing faulted in: not even one block's pages.
            assert (_rss_shmem_kb() - before) * 1024 < nbytes // 8
            for r, view in enumerate(views):
                assert not view.any()
                for name in (key, only_ranks):
                    # Attached by name the way a rank attaches its block.
                    seg = _attach_segment(f"{comm._prefix}-{name}-{r}")
                    try:
                        assert not np.ndarray(shape, np.complex128, buffer=seg.buf).any()
                    finally:
                        seg.close()


class TestTeardown:
    def test_close_unlinks_segments(self):
        comm = ShmComm(RankGrid((2, 1, 1, 1)))
        prefix = comm._prefix
        comm.alloc_blocks(comm.new_key("x"), LATTICE_SHAPE, np.complex128)
        assert _segment_names(prefix)
        comm.close()
        assert not _segment_names(prefix)

    def test_failing_rank_body_does_not_leak(self):
        comm = ShmComm(RankGrid((2, 1, 1, 1)))
        prefix = comm._prefix
        comm.alloc_blocks(comm.new_key("x"), LATTICE_SHAPE, np.complex128)
        with pytest.raises(RuntimeError, match="failed"):
            # Undeclared key: every worker raises inside the command body.
            comm._command(("exchange", "nosuchkey", 1, 0, None))
        # Workers survive a failed command and teardown still cleans up.
        comm.close()
        assert not _segment_names(prefix)

    def test_close_is_idempotent_and_context_safe(self):
        with ShmComm(RankGrid((1, 1, 1, 1))) as comm:
            prefix = comm._prefix
            comm.allreduce_sum([1.0])
        comm.close()
        assert not _segment_names(prefix)
        with pytest.raises(RuntimeError):
            comm.allreduce_sum([1.0])

    def test_workers_joined_after_close(self):
        comm = ShmComm(RankGrid((2, 1, 1, 1)))
        workers = list(comm._workers)
        comm.close()
        assert all(not w.is_alive() for w in workers)


class TestFaultTolerance:
    """Rank death, injected comm faults, and leak-free teardown under both."""

    def test_ping_roundtrips_all_ranks(self):
        with ShmComm(RankGrid((2, 1, 1, 1))) as comm:
            assert comm.ping() is True
            assert comm.healthy
            assert comm.workers_alive() == [True, True]

    def test_teardown_under_fault_does_not_leak(self):
        # The satellite guarantee: a runner-killed rank (SIGKILL, no worker
        # cleanup) must not leak /dev/shm segments once the master tears down.
        comm = ShmComm(RankGrid((2, 1, 1, 1)), timeout=10.0)
        prefix = comm._prefix
        comm.alloc_blocks(comm.new_key("x"), LATTICE_SHAPE, np.complex128)
        assert _segment_names(prefix)
        comm.kill_rank(1)
        assert comm.workers_alive() == [True, False]
        assert not comm.healthy
        with pytest.raises(RuntimeError, match="rank 1"):
            comm.ping()  # the dead rank surfaces as an error, not a hang
        comm.close()
        assert not _segment_names(prefix)

    def test_injected_rank_kill_before_command(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().kill_rank(rank=0, at_command=1)
        comm = ShmComm(RankGrid((2, 1, 1, 1)), timeout=10.0, fault_injector=inj)
        prefix = comm._prefix
        with pytest.raises(RuntimeError, match="rank 0"):
            comm.ping()
        comm.close()
        assert not _segment_names(prefix)

    def test_injected_drop_ack_keeps_pipes_in_sync(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().drop_ack(rank=1, at_command=1)
        with ShmComm(RankGrid((2, 1, 1, 1)), timeout=10.0, fault_injector=inj) as comm:
            with pytest.raises(RuntimeError, match="ack dropped"):
                comm.ping()
            assert comm.ping() is True  # the fault fired once; pipes survive

    def test_injected_delay_ack_is_transparent(self):
        from repro.campaign.faults import FaultInjector

        inj = FaultInjector().delay_ack(rank=0, at_command=1, seconds=0.05)
        with ShmComm(RankGrid((2, 1, 1, 1)), timeout=10.0, fault_injector=inj) as comm:
            assert comm.ping() is True

    def test_atexit_registry_closes_stragglers(self):
        from repro.comm.lifecycle import LIVE_COMMS, close_live_comms

        comm = ShmComm(RankGrid((1, 1, 1, 1)))
        prefix = comm._prefix
        comm.alloc_blocks(comm.new_key("y"), (2, 2, 2, 2, 4, 3), np.complex128)
        assert comm in LIVE_COMMS
        close_live_comms()  # what atexit runs if the driver dies with comms open
        assert comm._closed
        assert not _segment_names(prefix)
