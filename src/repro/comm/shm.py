"""Shared-memory transport: one OS process per rank on the cores of one node.

Where :class:`~repro.comm.VirtualComm` executes all ranks sequentially in
one process, :class:`ShmComm` runs each rank as a real worker process (the
paper's SPMD model on the cores of one node).  The master side is
:class:`~repro.comm.pool.RankPoolComm` and the rank side
:func:`repro.comm.executor.serve`; this module supplies only what moves
the bytes:

* Every block lives in a named ``multiprocessing.shared_memory`` segment
  that master and ranks map, so commands carry no payload — the master
  reads and writes rank memory directly.  A block only the ranks use is
  created by the master and left unmapped there; a new segment reads
  zeros, so no block is filled on creation.  The master writes such a
  block (a rank's link block) through a mapping it closes again
  (:meth:`~repro.comm.pool.RankPoolComm.write_blocks`), so its pages
  leave the master.
* A halo face is a zero-copy view into the neighbour's segment
  (:class:`_SegmentPeers`): the exchange is *pull*-style, each rank writes
  only its own ghost shells and reads only neighbour interiors.  Between
  commands the ack sweep keeps those interiors stable; a solve that runs
  many applies in one command brackets each exchange with a barrier of
  the ranks (:meth:`_SegmentPeers.barrier`).
* Commands and acks travel over one pipe per rank; ``poll`` gives the
  hard per-command deadline.

The master owns segment lifetime: workers attach by name and deregister
from the ``resource_tracker`` so only :meth:`ShmComm.close` unlinks (the
documented double-unlink workaround for Python < 3.13) — it joins the
workers and unlinks every segment even when a rank body raised.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.comm.errors import CommPeerError, CommTimeoutError
from repro.comm.executor import PeerTransport, RankExecutor, serve
from repro.comm.pool import RankPoolComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["ShmComm"]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a master-owned segment without adopting its lifetime.

    The resource tracker keys its cache by segment *name*, so letting the
    attach register (and later unregister) the name would erase the
    master's own registration and turn the final unlink into a tracker
    error.  Suppressing registration during the attach leaves exactly one
    owner — the master — as on Python >= 3.13's ``track=False``.
    """
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


class _SegmentPeers(PeerTransport):
    """Rank-side transport: blocks and neighbour faces are segment views."""

    def __init__(self, rank: int, prefix: str, barrier, timeout: float) -> None:
        self._rank = rank
        self._prefix = prefix
        self._barrier = barrier
        self._timeout = timeout
        self._shapes: dict[str, tuple[tuple[int, ...], np.dtype]] = {}
        self._segments: dict[tuple[str, int], shared_memory.SharedMemory] = {}
        self._arrays: dict[tuple[str, int], np.ndarray] = {}

    def _view(self, key: str, r: int) -> np.ndarray:
        """Rank ``r``'s block ``key``, attached on first use."""
        arr = self._arrays.get((key, r))
        if arr is None:
            shape, dtype = self._shapes[key]
            seg = _attach_segment(f"{self._prefix}-{key}-{r}")
            self._segments[(key, r)] = seg
            arr = self._arrays[(key, r)] = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        return arr

    def block(self, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        self._shapes[key] = (shape, dtype)
        return self._view(key, self._rank)  # created by the master; reads zeros

    def barrier(self) -> None:
        try:
            self._barrier.wait(self._timeout)
        except threading.BrokenBarrierError as e:
            raise CommTimeoutError("rank barrier broken (a rank failed or died)") from e

    def abort_barrier(self) -> None:
        self._barrier.abort()

    def send_faces(self, faces):
        return None  # neighbours read this rank's segment themselves

    def face(self, key: str, peer: int, tag: int, slab: tuple, like: np.ndarray) -> np.ndarray:
        return self._view(key, peer)[slab]

    def close(self) -> None:
        for seg in self._segments.values():
            try:
                seg.close()
            except Exception:
                pass


def _rank_main(rank: int, grid: RankGrid, conn, prefix: str, barrier, timeout: float) -> int:
    """Body of one rank process: serve commands from the pipe until ``stop``."""
    peers = _SegmentPeers(rank, prefix, barrier, timeout)
    try:
        return serve(RankExecutor(rank, grid, peers), conn)
    finally:
        peers.close()
        try:
            conn.close()
        except Exception:
            pass


class ShmComm(RankPoolComm):
    """A communicator whose ranks are real processes over shared memory.

    The arrays :meth:`alloc_blocks` returns are views of the rank
    processes' own memory.  Teardown stops the workers and unlinks every
    shared segment even after a rank failure.
    """

    name = "shm"
    ships_payloads = False

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        start_method: str | None = None,
        fault_injector=None,
    ) -> None:
        super().__init__(grid, trace, timeout, fault_injector)
        self._segments: dict[tuple[str, int], shared_memory.SharedMemory] = {}
        self._pipes: list = [None] * self.nranks
        try:
            self._barrier = self._context(start_method).Barrier(self.nranks)
            for r in self.grid.all_ranks():
                self._pipes[r], child = mp.Pipe()
                self._start_rank(
                    start_method, r, _rank_main,
                    r, self.grid, child, self._prefix, self._barrier, self.timeout,
                )
                child.close()
        except BaseException:
            self.close()
            raise

    def _send(self, rank: int, cmd: tuple, payload: bytes | None) -> None:
        pipe = self._pipes[rank]
        if pipe is None:
            raise CommPeerError("no control pipe")
        try:
            pipe.send((cmd, payload))
        except OSError as e:
            raise CommPeerError(f"send failed ({e})") from e

    def _recv(self, rank: int, timeout: float) -> tuple:
        pipe = self._pipes[rank]
        try:
            if not pipe.poll(timeout):
                raise CommTimeoutError(f"no reply within {timeout}s")
            return pipe.recv()
        except (EOFError, OSError) as e:
            raise CommPeerError(f"worker died ({e})") from e

    def _new_block(
        self, key: str, rank: int, shape: tuple[int, ...], dt: np.dtype, mapped: bool
    ) -> np.ndarray | None:
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        seg = shared_memory.SharedMemory(
            create=True, size=nbytes, name=f"{self._prefix}-{key}-{rank}"
        )
        self._segments[(key, rank)] = seg
        if not mapped:
            seg.close()  # the name stays until close() unlinks it
            return None
        # POSIX shared memory reads zeros when created: filling it would only
        # fault every page of every rank's block into the master.
        return np.ndarray(shape, dtype=dt, buffer=seg.buf)

    def _write_blocks(self, key: str, shape: tuple[int, ...], dt: np.dtype, fill) -> None:
        """Through a transient mapping of each rank's segment: mapped,
        filled, unmapped, one rank at a time."""
        for r in self.grid.all_ranks():
            seg = _attach_segment(f"{self._prefix}-{key}-{r}")
            try:
                fill(r, np.ndarray(shape, dtype=dt, buffer=seg.buf))
            finally:
                seg.close()

    def _release(self) -> None:
        self._reap_workers()
        for pipe in self._pipes:
            try:
                pipe.close()
            except Exception:
                pass
        for seg in self._segments.values():
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
        self._segments.clear()
