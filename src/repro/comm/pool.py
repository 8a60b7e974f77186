"""The master side of every process backend: one pool of rank processes.

``shm`` and ``tcp`` share one execution model.  The master
(driver) process owns a pool of rank processes, each running
:func:`repro.comm.executor.serve` over a
:class:`~repro.comm.executor.RankExecutor`; it broadcasts one command to
every rank and waits for every acknowledgement — the ack sweep is the
inter-command barrier.  Rank-local fields live in per-rank *blocks* that
the ranks exchange ghosts of and stencil in parallel.

:class:`RankPoolComm` is everything about that model that is not byte
moving: the comm protocol (``decompose`` / ``exchange`` /
``allreduce_sum`` / ``record_compute`` / ``trace``), the block API the
decomposed operator drives, the command sweep with its hard per-command
deadline, typed faults and fault-injector hooks, worker telemetry
gathering, process supervision, and idempotent leak-free teardown behind
the shared atexit sweep (:mod:`repro.comm.lifecycle`).  A transport
subclass keeps only spawn/rendezvous, :meth:`~RankPoolComm._send` /
:meth:`~RankPoolComm._recv`, what backs a block on the master
(:meth:`~RankPoolComm._new_block`) and how the master writes a block it
does not keep (:meth:`~RankPoolComm._write_blocks`), whether commands
must carry block bytes (:attr:`~RankPoolComm.ships_payloads`), and the
release of its own OS resources (:meth:`~RankPoolComm._release`).
"""

from __future__ import annotations

import os
import signal
import time
import uuid
import multiprocessing as mp

import numpy as np

from repro.comm.decomposition import Decomposition
from repro.comm.errors import CommError, CommPeerError, CommTimeoutError
from repro.comm.halo import (
    HaloField,
    face_bytes_of_shape,
    halo_exchange,
    record_exchange_trace,
)
from repro.comm.lifecycle import discard_live_comm, register_live_comm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace
from repro.lattice import Lattice4D
from repro.telemetry import registry as _tm_registry
from repro.telemetry.state import STATE

__all__ = ["RankPoolComm"]


class _Payloads:
    """Per-rank command payloads made as each is sent (``payloads[rank]``),
    so the master holds one rank's bytes at a time."""

    def __init__(self, make) -> None:
        self._make = make

    def __getitem__(self, rank: int):
        return self._make(rank)


def _rank_process(target, *args) -> None:
    """Entry point of a locally spawned rank process."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the master handles ^C
    # A forked worker inherits the master's registry contents; reset so the
    # teardown gather returns clean per-rank counts (spawn starts clean and
    # re-resolves REPRO_TELEMETRY from the environment).
    _tm_registry.reset()
    try:
        raise SystemExit(target(*args))
    except CommError:
        raise SystemExit(1)


class RankPoolComm:
    """A communicator whose ranks are real processes driven by one master.

    Drop-in for :class:`~repro.comm.VirtualComm` behind the comm protocol,
    plus the rank-block API the decomposed operator uses to run halo
    exchange and the Dslash stencil rank-parallel: :meth:`alloc_blocks`,
    :meth:`alloc_rank_blocks`, :meth:`write_blocks`,
    :meth:`exchange_shared`, :meth:`run_dslash`.  The arrays
    :meth:`alloc_blocks` returns are the master's side of each rank's
    block: the rank's own memory where the transport maps it, else a copy
    that commands synchronise (shipped in with the command, read back from
    the ack).  A block the master only writes once, such as a rank's link
    block, is a rank block it fills through :meth:`write_blocks` and then
    holds no byte of.

    Use as a context manager, or call :meth:`close` — teardown stops the
    ranks and releases every OS resource even after a rank failure.
    """

    #: Backend name (registry key; prefixes process, segment and error names).
    name = "pool"
    #: Capability flag the decomposed operator and the ABFT guard key the
    #: rank-parallel block path on.
    supports_rank_blocks = True
    #: True when the master cannot see rank memory, so ``exchange_shared``,
    #: ``run_dslash`` and ``run_cg`` carry their operands as command
    #: payloads and read results back from the acks.
    ships_payloads = True

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        fault_injector=None,
    ) -> None:
        if not isinstance(grid, RankGrid):
            grid = RankGrid(tuple(grid))
        self.grid = grid
        self.trace = trace if trace is not None else CommTrace()
        self.timeout = float(timeout)
        self._prefix = f"{self.name}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._blocks: dict[str, tuple[tuple[int, ...], str, list[np.ndarray]]] = {}
        self._key_counter = 0
        self._closed = False
        #: Locally spawned rank processes (``None``: the rank runs elsewhere).
        self._workers: list = [None] * grid.nranks
        #: Ranks a send or receive has failed on; teardown does not wait on them.
        self._dead: set[int] = set()
        #: The ranks' barrier, where a transport's ranks wait on each other.
        self._barrier = None
        # Duck-typed hook (see repro.campaign.faults.FaultInjector): consulted
        # around every command send/ack so tests and the campaign harness can
        # kill a rank, delay an ack, or drop an ack at a chosen point.
        self._faults = fault_injector
        self._ncommands = 0
        register_live_comm(self)

    # -- transport hooks ------------------------------------------------------

    def _send(self, rank: int, cmd: tuple, payload: bytes | None) -> None:
        """Deliver ``(cmd, payload)`` to ``rank``; raise a typed ``CommError``."""
        raise NotImplementedError

    def _recv(self, rank: int, timeout: float) -> tuple:
        """``rank``'s next ``(status, meta, payload)`` ack within ``timeout`` s."""
        raise NotImplementedError

    def _new_block(
        self, key: str, rank: int, shape: tuple[int, ...], dt: np.dtype, mapped: bool
    ) -> np.ndarray | None:
        """The zero-filled master-side array of ``rank``'s block ``key``;
        ``None``, and no master memory, for a block only the ranks use."""
        return np.zeros(shape, dtype=dt) if mapped else None

    def _write_blocks(self, key: str, shape: tuple[int, ...], dt: np.dtype, fill) -> None:
        """:meth:`write_blocks`: by default a buffer per rank that one ``load``
        command ships to its rank as it is sent."""

        def payload(rank: int) -> memoryview:
            block = np.empty(shape, dt)
            fill(rank, block)
            return memoryview(block).cast("B")

        self._command(("load", key), _Payloads(payload))

    def _sever(self, rank: int) -> None:
        """Cut the link to a rank this master did not spawn (default: cannot)."""

    def _lost(self, rank: int) -> None:
        """Mark ``rank`` failed: teardown does not wait on it, and ranks
        waiting for it at the barrier give up at once."""
        self._dead.add(rank)
        if self._barrier is not None:
            self._barrier.abort()

    def _release(self) -> None:
        """Free the transport's own OS resources.  Must not raise."""
        raise NotImplementedError

    @staticmethod
    def _context(start_method: str | None):
        """The multiprocessing context rank processes start in."""
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return mp.get_context(start_method)

    def _start_rank(self, start_method: str | None, rank: int, target, *args) -> None:
        """Spawn ``target(*args)`` as the daemonic local process of ``rank``."""
        proc = self._context(start_method).Process(
            target=_rank_process,
            args=(target, *args),
            daemon=True,
            name=f"{self.name}-rank-{rank}",
        )
        proc.start()
        self._workers[rank] = proc

    def _reap_workers(self) -> None:
        """Join local rank processes, terminating any that outlive ``stop``."""
        for proc in self._workers:
            if proc is None:
                continue
            try:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
            except Exception:
                pass

    # -- comm protocol (drop-in for VirtualComm) ------------------------------

    @property
    def nranks(self) -> int:
        return self.grid.nranks

    def decompose(self, lattice: Lattice4D) -> Decomposition:
        return Decomposition(lattice, self.grid)

    def exchange(
        self,
        halos: list[HaloField],
        phases: tuple[complex, complex, complex, complex] | None = None,
    ) -> None:
        """Fill ghost shells of master-resident halo fields.

        Arbitrary (non-block) arrays live only in the master, so this runs
        the sequential exchange — identical data motion and trace.  Blocks
        go through :meth:`exchange_shared`.
        """
        halo_exchange(halos, self.grid, trace=self.trace, phases=phases)

    def allreduce_sum(self, partials) -> complex | float:
        """Global sum of per-rank partials, widened to fp64 and summed in rank order.

        The in-order sum is the same arithmetic as ``VirtualComm``, so the
        result is bit-identical regardless of backend.  The partials of a
        rank-resident solve (:meth:`run_cg`) arrive from the ranks in
        their acks; the master sums them here and sends the total back.
        """
        self._check_open()
        if len(partials) != self.nranks:
            raise ValueError(f"expected {self.nranks} partials, got {len(partials)}")
        buf = np.empty(self.nranks, dtype=np.complex128)
        for r, p in enumerate(partials):
            buf[r] = p
        total = buf[0]
        for r in range(1, self.nranks):
            total = total + buf[r]
        self.trace.record_collective(
            "allreduce_sum", np.asarray(partials[0]).nbytes, self.nranks
        )
        if np.iscomplexobj(np.asarray(partials[0])):
            return complex(total)
        return float(total.real)

    def record_compute(self, kernel: str, flops_per_rank: int) -> None:
        self.trace.record_compute(kernel, flops_per_rank, self.nranks)

    # -- health & fault injection ---------------------------------------------

    def workers_alive(self) -> list[bool]:
        """Per-rank liveness (local: process state; elsewhere: link state)."""
        return [
            bool(proc.is_alive()) if proc is not None else not (self._closed or r in self._dead)
            for r, proc in enumerate(self._workers)
        ]

    @property
    def healthy(self) -> bool:
        """True while the comm is open and every rank is alive."""
        return not self._closed and all(self.workers_alive())

    def ping(self) -> bool:
        """Full command/ack round trip through every rank (the watchdog probe).

        An empty ``declare`` is a no-op on the ranks but still traverses
        every control link, so a dead, wedged, or deadlocked rank surfaces
        as a typed :class:`CommError` instead of a later mid-physics hang.
        """
        self._command(("declare", []))
        return True

    def kill_rank(self, rank: int, sig: int = signal.SIGKILL) -> None:
        """Fault-injection hook: take one rank down hard.

        A local rank gets ``sig`` (SIGKILL models node failure — no
        cleanup, exactly like a production rank loss; master-owned
        resources are unaffected and :meth:`close` still releases them);
        a rank running elsewhere has its control link severed, the
        strongest action the master has across hosts.
        """
        proc = self._workers[rank]
        if proc is not None:
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, sig)
            proc.join(timeout=5.0)
        else:
            self._sever(rank)
        self._lost(rank)

    # -- rank-block API -------------------------------------------------------

    def new_key(self, tag: str) -> str:
        """A fresh block key (operators may share one comm)."""
        self._key_counter += 1
        return f"{tag}{self._key_counter}"

    def alloc_blocks(self, key: str, shape: tuple[int, ...], dtype) -> list[np.ndarray]:
        """Allocate one zero-filled block per rank; return the master's arrays."""
        return self._alloc(key, shape, dtype, True)

    def alloc_rank_blocks(self, key: str, shape: tuple[int, ...], dtype) -> None:
        """Allocate one zero-filled block per rank that only the ranks touch:
        the master keeps no copy and faults in no page of it."""
        self._alloc(key, shape, dtype, False)

    def _alloc(self, key: str, shape: tuple[int, ...], dtype, mapped: bool):
        self._check_open()
        if key in self._blocks:
            raise ValueError(f"block key {key!r} already allocated")
        shape, dt = tuple(shape), np.dtype(dtype)
        views = [self._new_block(key, r, shape, dt, mapped) for r in self.grid.all_ranks()]
        self._blocks[key] = (shape, dt.str, views)
        self._command(("declare", [(key, shape, dt.str)]))
        return views if mapped else None

    def blocks(self, key: str) -> list[np.ndarray]:
        """Master-side arrays of an allocated block set."""
        return self._blocks[key][2]

    def block_checksums(self, key: str) -> list[int]:
        """Per-rank CRC32 of a block set's bytes, computed by each rank on
        its own block: the bytes its stencil reads, not a copy of them.

        The ABFT guard layer (:mod:`repro.guard.abft`) compares these
        against encode-time values to localise silent corruption of the
        link-plane blocks to a rank.
        """
        return [meta for _, meta, _ in self._acks(("checksum", key), None, ("ok",))]

    def write_blocks(self, key: str, fill) -> None:
        """Write every rank's block ``key``: ``fill(rank, array)`` writes the
        whole of an array that becomes that rank's bytes.

        One rank at a time, through an array the master drops afterwards
        (:meth:`_write_blocks`), so it holds one rank's bytes at a time and
        none after.
        """
        self._check_open()
        shape, dt, _ = self._blocks[key]
        self._write_blocks(key, shape, np.dtype(dt), fill)

    def exchange_shared(
        self,
        key: str,
        width: int | tuple[int, ...] = 1,
        site_axis_start: int = 0,
        phases: tuple[complex, complex, complex, complex] | None = None,
    ) -> None:
        """Rank-parallel halo exchange of a block set, with trace."""
        self._check_open()
        self._record_exchange(key, width)
        self._run(("exchange", key, width, site_axis_start, phases), key, key)

    def run_dslash(
        self,
        psi_key: str,
        out_key: str,
        u_key: str,
        phases: tuple[complex, complex, complex, complex],
        diag: float,
        width: int | tuple[int, ...] = 1,
    ) -> None:
        """One rank-parallel Wilson apply: exchange + stencil per rank.

        A rank whose faces travel stencils its deep interior meanwhile
        (:meth:`~repro.comm.executor.RankExecutor.dslash`); the result is
        bit-identical either way.  Halo traffic is recorded exactly as the
        sequential backend records it.  The links stay rank-resident from
        construction; where commands carry payloads only the source
        fermion travels in and only the result block comes back.
        """
        self._check_open()
        self._record_exchange(psi_key, width)
        self._run(
            ("dslash", psi_key, out_key, u_key, width, phases, diag),
            psi_key,
            out_key,
        )

    def run_cg(
        self,
        keys: tuple[str, str, str, str],
        phases: tuple[complex, complex, complex, complex],
        diag: float,
        width: int | tuple[int, ...],
        solve: tuple,
        flops_per_rank: int,
    ):
        """CG on ``M^dag M`` run by the ranks on their own blocks.

        ``keys`` name the blocks ``(psi, out, hop, links)``: ``b`` comes in
        through the interior of ``psi``, which then holds the search
        direction, ``hop`` (rank-only, like ``psi`` in shape) the first
        hop's output, and ``out`` ``A p``; ``solve`` is ``(tol, max_iter,
        policy)``.  Every inner product is one round: each rank acks with
        its partial (and the applies it ran since the last round), the
        master records those applies' halo and compute events, sums the
        partials with :meth:`allreduce_sum` and sends the total back — so
        the trace is event for event the one ``VirtualComm`` records.  A
        guard fault the ranks raised alike is raised here as it was; any
        other rank failure is a :class:`CommError`, raised once every live
        rank has left the solve (:meth:`_abort_solve`).

        Returns the ranks' :class:`~repro.solvers.base.SolveResult` (no
        ``x``) and ``|b|^2``; ``x`` is then in the interior of ``psi`` and,
        when ``|b|^2 > 0``, ``M x`` in ``out``.
        """
        self._check_open()
        psi_key, out_key = keys[:2]
        payloads = None
        if self.ships_payloads:
            payloads = [m.tobytes() for m in self._blocks[psi_key][2]]
        b_norm2 = None
        try:
            replies = self._acks(("solve", keys, width, phases, diag, solve), payloads)
            while True:
                statuses = {status for status, _, _ in replies}
                if len(statuses) != 1:
                    raise CommError(f"{self.name} solve: ranks out of step ({sorted(statuses)})")
                status, (value, hops), _ = replies[0]
                for _ in range(hops):
                    self._record_exchange(psi_key, width)
                    self.record_compute("wilson_dslash", flops_per_rank)
                if status == "fault":
                    raise value
                if status == "ok":
                    break
                total = self.allreduce_sum([meta[0] for _, meta, _ in replies])
                b_norm2 = total.real  # the last round sums |b|^2
                replies = self._acks(("total", total))
        except CommError:
            self._abort_solve()
            raise
        if self.ships_payloads:
            for r, (_, _, raw) in enumerate(replies):
                psi, out = self._blocks[psi_key][2][r], self._blocks[out_key][2][r]
                psi[...] = np.frombuffer(raw, psi.dtype, psi.size).reshape(psi.shape)
                out[...] = np.frombuffer(raw, out.dtype, offset=psi.nbytes).reshape(out.shape)
        return value, b_norm2

    def _abort_solve(self) -> None:
        """Bring every live rank of a failed :meth:`run_cg` back to its
        command loop.  Each takes one ``abort`` and acks it: a rank still
        waiting for a total ends its solve, one that already left it does
        nothing.  The barrier the first rank to fail broke is then reset,
        unless a rank is lost for good."""
        live = [r for r in self.grid.all_ranks() if r not in self._dead]
        for r in live:
            try:
                self._send(r, ("abort",), None)
            except CommError:
                self._lost(r)
        for r in live:
            if r not in self._dead:
                try:
                    self._recv(r, self.timeout)
                except CommError:
                    self._lost(r)
        if self._barrier is not None and not self._dead:
            self._barrier.reset()

    # -- internals ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def _record_exchange(self, key: str, width=1) -> None:
        shape, dtype, _ = self._blocks[key]
        s0 = len(shape) - 6  # site axes end 6 before the (spin|dir, color) tail
        # Fermion blocks are (t,z,y,x,4,3) -> s0=0; gauge (4,t,z,y,x,3,3) -> s0=1.
        itemsize = np.dtype(dtype).itemsize
        nbytes = [
            face_bytes_of_shape(shape, s0, width, mu, itemsize) for mu in range(4)
        ]
        record_exchange_trace(self.trace, self.grid, nbytes)

    def _run(self, cmd: tuple, in_key: str, out_key: str) -> None:
        """One command that reads block set ``in_key`` and writes ``out_key``."""
        if not self.ships_payloads:
            self._command(cmd)
            return
        replies = self._command(cmd, [m.tobytes() for m in self._blocks[in_key][2]])
        for m, raw in zip(self._blocks[out_key][2], replies):
            m[...] = np.frombuffer(raw, dtype=m.dtype).reshape(m.shape)

    def _command(self, cmd: tuple, payloads: list[bytes] | None = None) -> list:
        """Broadcast ``cmd`` (+ optional per-rank payload), sweep the acks.

        Returns the per-rank ack payloads.  Any rank failing — timeout,
        death, torn frame, or an error ack — aborts the command with a
        typed :class:`CommError` naming every failed rank; if *every*
        failure was a deadline, the more specific
        :class:`CommTimeoutError` is raised so callers can distinguish a
        wedged fleet from a dead one.
        """
        return [raw for _, _, raw in self._acks(cmd, payloads, ("ok",))]

    def _acks(
        self, cmd: tuple, payloads: list[bytes] | None = None,
        statuses: tuple[str, ...] = ("ok", "reduce", "fault"),
    ) -> list[tuple]:
        """:meth:`_command`, returning each rank's ``(status, meta, payload)``
        ack; a status outside ``statuses`` is a failure of that rank."""
        self._check_open()
        self._ncommands += 1
        idx = self._ncommands
        errors: list[tuple[int, Exception]] = []
        sent: list[int] = []
        for r in self.grid.all_ranks():
            if self._faults is not None:
                self._faults.fire_pre_send(self, idx, r)
            try:
                self._send(r, cmd, None if payloads is None else payloads[r])
                sent.append(r)
            except CommError as e:
                self._lost(r)
                errors.append((r, e))
        replies: list = [None] * self.nranks
        for r in sent:
            drop_ack = False
            if self._faults is not None:
                delay, drop_ack = self._faults.fire_pre_recv(self, idx, r)
                if delay > 0.0:
                    time.sleep(delay)
            try:
                replies[r] = status, meta, _ = self._recv(r, self.timeout)
            except CommError as e:
                self._lost(r)
                errors.append((r, e))
                continue
            if drop_ack:
                # Consume the ack (keeping the link in sync) but treat it as
                # lost — the injected-network-fault path.
                errors.append((r, CommPeerError("ack dropped (injected fault)")))
            elif status not in statuses:
                errors.append((r, CommError(str(meta))))
        if errors:
            detail = "\n".join(f"rank {r}: {e}" for r, e in errors)
            cls = (
                CommTimeoutError
                if all(isinstance(e, CommTimeoutError) for _, e in errors)
                else CommError
            )
            raise cls(
                f"{self.name} command {cmd[0]!r} failed on {len(errors)} rank(s):\n{detail}"
            )
        return replies

    # -- telemetry aggregation ------------------------------------------------

    def gather_worker_metrics(self, timeout: float = 5.0) -> dict[int, dict]:
        """Pull each rank's telemetry registry snapshot into the master's.

        Rank counters land in the master registry under a ``rank<r>/``
        prefix (e.g. ``rank2/commands/dslash``).  Returns the raw per-rank
        snapshots.  Best-effort: a dead or slow rank is skipped, never
        raised on — this runs inside :meth:`close`.
        """
        asked: list[int] = []
        for r in self.grid.all_ranks():
            if r in self._dead:
                continue
            try:
                self._send(r, ("telemetry",), None)
                asked.append(r)
            except Exception:
                pass
        snaps: dict[int, dict] = {}
        for r in asked:
            try:
                status, meta, _ = self._recv(r, timeout)
            except Exception:
                continue
            if status == "ok" and isinstance(meta, dict):
                snaps[r] = meta
        reg = _tm_registry.get_registry()
        for r, snap in snaps.items():
            reg.merge(snap, prefix=f"rank{r}/")
        return snaps

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Stop the ranks and release every OS resource.  Idempotent; never raises."""
        if self._closed:
            return
        if STATE.counting:
            try:
                self.gather_worker_metrics()
            except Exception:
                pass
        self._closed = True
        discard_live_comm(self)
        stopping: list[int] = []
        for r in self.grid.all_ranks():
            if r in self._dead:
                continue
            try:
                self._send(r, ("stop",), None)
                stopping.append(r)
            except Exception:
                pass
        for r in stopping:
            try:
                self._recv(r, 2.0)
            except Exception:
                pass
        self._release()
        self._blocks.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort safety net; tests close explicitly
        try:
            self.close()
        except Exception:
            pass
