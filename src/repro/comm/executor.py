"""The rank program: one command executor and one serve loop for every transport.

A rank process is a loop: receive a command from the master, act on
rank-local blocks (allocate, exchange ghosts with neighbours, stencil),
acknowledge.  Nothing in that loop depends on *how bytes move*, so it
lives here once — :class:`RankExecutor` holds the block table and the
command semantics, :func:`serve` is the loop — and ``shm`` and ``tcp``
differ only in the :class:`PeerTransport` they hand it ("back this
block", "give me the neighbour's face") and in the control link
:func:`serve` reads commands from.

The halo exchange is the same data motion as
:func:`repro.comm.halo.halo_exchange`: along each decomposed axis the
``+mu`` neighbour's ``src_lo`` slab becomes this rank's ``ghost_hi`` and
the ``-mu`` neighbour's ``src_hi`` slab its ``ghost_lo``; undecomposed
axes are local copies.  Slab indices come from
:func:`~repro.comm.halo.face_index` — the single source of truth shared
with the sequential backend — and boundary phases are applied by the
*receiver* after the copy, in the same order as ``halo_exchange``, so the
filled arrays are bit-identical across every backend.  Only ghost shells
are written and only interior slabs are read (and those carry interior
extents on the orthogonal axes), so ranks that map each other's memory
need no synchronisation inside a command.  A width is one int for every
axis or one per axis; an axis of width 0 carries no ghosts, and nothing
along it is sent or filled.
"""

from __future__ import annotations

import threading
import time
import traceback
import zlib

import numpy as np

from repro.comm.errors import CommError
from repro.comm.frame import face_tag
from repro.comm.halo import face_index
from repro.comm.rankgrid import RankGrid
from repro.guard.errors import NumericalFault
from repro.kernels.fused import halo_widths
from repro.telemetry import registry as _tm_registry

__all__ = ["PeerTransport", "RankExecutor", "serve"]


class _ThreadedSends:
    """Run a transport's blocking sends on a helper thread.

    Concurrent send/recv is what makes the exchange deadlock-free: every
    rank can be mid-``sendall`` of a face larger than the socket buffer
    while its main thread drains the peer's frames.
    """

    def __init__(self, send_one, sends: list[tuple[int, int, bytes]]) -> None:
        self._error: BaseException | None = None

        def run() -> None:
            try:
                for peer, tag, payload in sends:
                    send_one(peer, tag, payload)
            except BaseException as e:  # re-raised by join() on the main thread
                self._error = e

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def join(self) -> None:
        self._thread.join()
        if self._error is not None:
            raise self._error


class PeerTransport:
    """What a rank needs from its transport, with message-passing defaults.

    A message transport (:class:`repro.comm.tcp._SocketPeers`) supplies
    ``send_one(peer, tag, bytes)`` and ``recv(peer, tag)`` — the latter
    blocks for one tagged message and raises a typed
    :class:`~repro.comm.errors.CommError` on timeout, peer death, or a
    torn frame — and inherits the rest.  A
    transport whose ranks map each other's memory
    (:class:`repro.comm.shm._SegmentPeers`) overrides :meth:`block`,
    :meth:`send_faces` and :meth:`face` instead and moves no message.
    """

    def send_one(self, peer: int, tag: int, payload: bytes) -> None:
        raise NotImplementedError

    def recv(self, peer: int, tag: int) -> bytes:
        raise NotImplementedError

    def block(self, key: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Zero-filled storage backing this rank's block ``key``."""
        return np.zeros(shape, dtype=dtype)

    def send_faces(self, faces: list[tuple[int, int, np.ndarray]]):
        """Make ``(peer, tag, slab)`` source faces reachable by the peers.

        Returns an object to ``join()`` once this rank's own ghosts are
        filled (sends run on a helper thread so they overlap the
        receives), or ``None`` when there is nothing to wait for.
        """
        if not faces:
            return None
        return _ThreadedSends(
            self.send_one,
            [(peer, tag, np.ascontiguousarray(slab).tobytes()) for peer, tag, slab in faces],
        )

    def face(self, key: str, peer: int, tag: int, slab: tuple, like: np.ndarray) -> np.ndarray:
        """``peer``'s source face ``slab`` of block ``key``, shaped like ``like``.

        Receives are matched by ``(peer, tag)`` so the two faces a width-2
        grid axis routes over one link cannot be confused.
        """
        return np.frombuffer(self.recv(peer, tag), like.dtype).reshape(like.shape)

    def barrier(self) -> None:
        """Wait for every rank.  A message transport needs none: a face is
        copied when it is sent and received only once it has been."""

    def abort_barrier(self) -> None:
        """Release every rank waiting at :meth:`barrier`, now and until the
        master resets it: this rank has left the command they wait in."""


class _Stopped(Exception):
    """The master sent ``stop`` while a command waited on it."""


class RankExecutor:
    """One rank's block table + command semantics, independent of transport."""

    def __init__(self, rank: int, grid: RankGrid, peers: PeerTransport) -> None:
        from repro.kernels.halo import HaloStencil

        self.rank = int(rank)
        self.grid = grid
        self.peers = peers
        self.blocks: dict[str, np.ndarray] = {}
        #: The link to the master, set by :func:`serve`.
        self.control = None
        self._stencil = HaloStencil()

    # -- block lifecycle ------------------------------------------------------

    def declare(self, specs: list[tuple[str, tuple[int, ...], str]]) -> None:
        """Back one zero-filled rank-local block per ``(key, shape, dtype)``."""
        for key, shape, dtype in specs:
            self.blocks[key] = self.peers.block(key, tuple(shape), np.dtype(dtype))

    def _load(self, key: str, raw: bytes) -> None:
        """Replace a block's bytes with the master's copy (full array)."""
        arr = self.blocks[key]
        arr[...] = np.frombuffer(raw, dtype=arr.dtype).reshape(arr.shape)

    # -- halo exchange --------------------------------------------------------

    def exchange(
        self,
        key: str,
        width: int,
        site_axis_start: int,
        phases: tuple[complex, complex, complex, complex] | None,
    ) -> None:
        """Fill this rank's ghost shells from neighbour faces + local wraps."""
        pending = self._post_faces(key, width, site_axis_start)
        self._fill_ghosts(key, width, site_axis_start, phases, pending)

    def _post_faces(self, key: str, width: int, site_axis_start: int):
        """Start sending this rank's source faces; what :meth:`_fill_ghosts` joins."""
        arr = self.blocks[key]
        rank, grid = self.rank, self.grid
        faces = []
        for mu, w in enumerate(halo_widths(width)):
            nb_hi = grid.neighbor(rank, mu, +1)
            if nb_hi != rank and w:
                nb_lo = grid.neighbor(rank, mu, -1)
                for nb, role in ((nb_hi, "src_hi"), (nb_lo, "src_lo")):
                    slab = face_index(arr.ndim, site_axis_start, width, mu, role)
                    faces.append((nb, face_tag(mu, role == "src_hi"), arr[slab]))
        return self.peers.send_faces(faces)

    def _fill_ghosts(self, key: str, width, site_axis_start: int, phases, pending) -> None:
        """Fill the ghosts of block ``key`` along every axis that has them."""
        arr = self.blocks[key]
        rank, grid, peers = self.rank, self.grid, self.peers
        try:
            for mu, w in enumerate(halo_widths(width)):
                if w == 0:
                    continue
                for sign, ghost_role, src_role in (
                    (+1, "ghost_hi", "src_lo"),
                    (-1, "ghost_lo", "src_hi"),
                ):
                    nb = grid.neighbor(rank, mu, sign)
                    ghost = arr[face_index(arr.ndim, site_axis_start, width, mu, ghost_role)]
                    src = face_index(arr.ndim, site_axis_start, width, mu, src_role)
                    if nb == rank:
                        # Undecomposed axis: the wrap is a local copy, exactly
                        # as the sequential exchange performs it.
                        ghost[...] = arr[src]
                    else:
                        tag = face_tag(mu, src_role == "src_hi")
                        ghost[...] = peers.face(key, nb, tag, src, ghost)
                    if phases is not None and grid.crosses_boundary(rank, mu, sign):
                        ghost *= phases[mu] if sign > 0 else np.conj(phases[mu])
        finally:
            if pending is not None:
                pending.join()

    # -- compute --------------------------------------------------------------

    def dslash(
        self,
        psi_key: str,
        out: np.ndarray,
        u_key: str,
        width: tuple[int, int, int, int],
        phases: tuple[complex, complex, complex, complex],
        diag: float,
    ) -> None:
        """One Wilson apply on this rank: exchange + box stencil of block
        ``psi_key`` into the local-shaped array ``out``.

        The stencil multiplies by the link planes of block ``u_key``
        (:func:`~repro.kernels.halo.rank_links`) in place.  The block has
        ghosts of ``width`` along the split axes only, and those are what
        the exchange fills: along an axis the rank spans, the stencil
        wraps by the boundary phase, as the lattice kernel does.  The
        schedule follows what is in flight: while this rank's faces are
        on their way (a message transport) the deep interior, which reads
        no ghosts, is stenciled, hiding face traffic behind compute, and
        the boundary slabs after; with nothing in flight (ranks that map
        each other's memory) the whole block is one box after the copies.
        The result is bit-identical either way because the boxes
        partition the interior.
        """
        from repro.kernels.halo import full_box, rank_links, split_boxes

        psi = self.blocks[psi_key]
        local = out.shape[:4]
        split = self.grid.decomposed_axes()
        links, behind = rank_links(self.blocks[u_key], local, split)

        def stencil(box) -> None:
            self._stencil.rank_box_into(out, links, behind, psi, width, box, diag, phases)

        pending = self._post_faces(psi_key, width, 0)
        deep, boxes = None, [full_box(local)]
        if pending is not None:
            deep, boxes = split_boxes(local, width, split)
        try:
            if deep is not None:
                stencil(deep)
        finally:
            self._fill_ghosts(psi_key, width, 0, phases, pending)
        for box in boxes:
            stencil(box)

    def allreduce(self, partial: complex, hops: int) -> complex:
        """This rank's part of a global sum inside a command: ack the master
        with ``partial`` (and the ``hops`` applies run since the last sum),
        wait for the total."""
        self.control.send(("reduce", (partial, hops), None))
        cmd, _ = self.control.recv()
        if cmd[0] == "total":
            return cmd[1]
        if cmd[0] == "stop":
            raise _Stopped
        raise CommError(f"solve ended by the master ({cmd[0]!r})")

    # -- command dispatch -----------------------------------------------------

    def execute(self, cmd: tuple, payload: bytes | None):
        """Run one command; return ``(meta, payload)`` for the ack.

        ``exchange``, ``dslash`` and ``solve`` take an optional payload: a
        master that cannot see rank memory ships the input block's bytes
        with the command and gets the output blocks' bytes back in the ack;
        a master that maps it sends none and gets none.  ``load`` replaces
        a block's bytes with the payload; ``checksum`` acks the CRC32 of a
        block's bytes, the ones this rank computes with.
        ``solve`` runs ``cg_spmd`` here (:func:`repro.solvers.spmd.rank_cg`),
        its sums acked one by one through :meth:`allreduce`; after a solve
        fails the master sends every rank ``abort``, which ends it where
        it still waits for a sum.
        """
        op = cmd[0]
        if op == "telemetry":
            return _tm_registry.snapshot(), None
        _tm_registry.add(f"commands/{op}", 1)
        if op == "declare":
            self.declare(cmd[1])
        elif op == "load":
            self._load(cmd[1], payload)
        elif op == "checksum":
            return zlib.crc32(self.blocks[cmd[1]]), None
        elif op == "exchange":
            _, key, width, s0, phases = cmd
            if payload is not None:
                self._load(key, payload)
            self.exchange(key, width, s0, phases)
            if payload is not None:
                return None, self.blocks[key].tobytes()
        elif op == "dslash":
            _, psi_key, out_key, *args = cmd
            if payload is not None:
                self._load(psi_key, payload)
            self.dslash(psi_key, self.blocks[out_key], *args)
            if payload is not None:
                return None, self.blocks[out_key].tobytes()
        elif op == "solve":
            from repro.solvers.spmd import rank_cg

            psi_key, out_key = cmd[1][:2]
            if payload is not None:
                self._load(psi_key, payload)
            try:
                meta = rank_cg(self, *cmd[1:])
            except NumericalFault:
                raise  # every rank raises it alike, after the same sum
            except BaseException:
                self.peers.abort_barrier()  # the other ranks stop waiting for this one
                raise
            if payload is not None:
                return meta, self.blocks[psi_key].tobytes() + self.blocks[out_key].tobytes()
            return meta, None
        elif op == "abort":
            pass  # a failed solve's reset, to a rank that had already left it
        elif op == "sleep":
            # Fault-drill hook: wedge this rank so the master's recv deadline
            # (not a deadlock) decides the outcome.
            time.sleep(float(cmd[1]))
        else:
            raise ValueError(f"unknown rank command {op!r}")
        return None, None


def serve(executor: RankExecutor, control) -> int:
    """Execute the master's commands until ``stop``; the body of every rank.

    ``control.recv()`` yields ``(cmd, payload)`` and ``control.send``
    takes the ``(status, meta, payload)`` ack — a pipe end and a framed
    socket both fit.  A command that raises is acknowledged as
    ``("error", traceback, None)`` and the loop goes on; a guard fault of a
    solve, which every rank raises alike, as ``("fault", (fault, 0), None)``.
    Returns 0 after a clean ``stop`` and 1 when the master went away.
    """
    executor.control = control
    while True:
        try:
            cmd, payload = control.recv()
        except (EOFError, OSError, CommError):
            return 1  # master died; nothing to ack
        stop = cmd[0] == "stop"
        try:
            reply = ("ok", None, None) if stop else ("ok", *executor.execute(cmd, payload))
        except _Stopped:
            reply, stop = ("ok", None, None), True
        except NumericalFault as fault:
            reply = ("fault", (fault, 0), None)
        except Exception:
            reply = ("error", traceback.format_exc(), None)
        try:
            control.send(reply)
        except (OSError, CommError):
            return 1
        if stop:
            return 0
