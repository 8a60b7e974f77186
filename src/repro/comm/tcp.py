"""Socket transport: one OS process per rank over TCP, on any hosts.

:class:`TcpComm` is the third communicator backend: where ``shm`` proves
real rank-parallelism on one node's cores, ``tcp`` removes the one-host
restriction — each rank is an OS process reachable only through sockets,
so rank processes may live on *different hosts*, which is the paper's
production deployment shape (and exactly the commodity-Ethernet regime the
DESY cluster papers measured).  The master side is
:class:`~repro.comm.pool.RankPoolComm` and the rank side
:func:`repro.comm.executor.serve`; this module supplies only what moves
the bytes:

* The master owns a listening *rendezvous* socket.  By default it spawns
  one local worker process per rank; with ``n_external > 0`` it leaves
  that many ranks for workers started elsewhere via
  ``python -m repro.comm.tcp --connect host:port`` — the cross-host mode.
  Every worker dials the rendezvous address, handshakes, and receives its
  rank, the grid, and the peer address book.
* Workers open their own peer listeners and build a neighbour mesh
  (higher rank dials lower), so halo faces travel rank-to-rank without
  passing through the master (:class:`_SocketPeers`).
* Blocks live in *worker* memory and the master holds copies of those
  it uses, so commands carry payloads: ``run_dslash`` ships the source
  fermion with the command and gets the result block back in the ack,
  ``write_blocks`` ships a block the master keeps no copy of (a rank's
  links) one rank's bytes at a time, ``exchange_shared`` round-trips the
  named block set, and ``run_cg`` ships ``b`` in and ``x`` and ``M x``
  out, with each rank's partial sums in between.
* Every message is a length-prefixed CRC-stamped frame
  (:mod:`repro.comm.frame`): a rank killed mid-send produces a typed
  :class:`~repro.comm.errors.TornFrameError`, never silently truncated
  halo data.

Hard deadlines everywhere: connect, send, and recv all carry timeouts, so
a dead, wedged, or partitioned rank surfaces as a typed
:class:`~repro.comm.errors.CommError` (which ``run_resilient`` retries)
instead of a hang.  Teardown is leak-proof: sockets closed, local workers
joined or killed, nothing orphaned.
"""

from __future__ import annotations

import os
import socket
import time

from repro.comm.errors import (
    CommConnectError,
    CommError,
    CommPeerError,
    CommTimeoutError,
    TornFrameError,
)
from repro.comm.executor import PeerTransport, RankExecutor, serve
from repro.comm.frame import recv_frame, recv_msg, recv_obj, send_frame, send_msg, send_obj
from repro.comm.pool import RankPoolComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["TcpComm", "run_worker", "main"]

PROTOCOL_VERSION = 1
_HELLO_TAG = 255  # peer-mesh hello frames carry the dialing rank


# ---------------------------------------------------------------------------
# sockets
# ---------------------------------------------------------------------------


def _dial(addr: tuple[str, int], timeout: float, what: str) -> socket.socket:
    """Connect with a hard deadline; refusal/unreachable is a typed fault."""
    try:
        sock = socket.create_connection(addr, timeout=timeout)
    except (TimeoutError, socket.timeout) as e:
        raise CommTimeoutError(f"{what}: connect to {addr} timed out after {timeout}s") from e
    except OSError as e:
        raise CommConnectError(f"{what}: connect to {addr} failed ({e})") from e
    sock.settimeout(timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _listen(host: str, port: int, backlog: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def _close_quietly(sock) -> None:
    if sock is None:
        return
    try:
        sock.close()
    except Exception:
        pass


class _SocketPeers(PeerTransport):
    """Rank↔rank face transport over one socket per neighbour pair.

    ``recv`` matches frames by ``(peer, tag)``: a frame that arrives for a
    different tag on the same socket (the width-2 grid axis routes both
    directions over one link) is stashed until asked for, so out-of-order
    arrival cannot misfile a face.
    """

    def __init__(self, socks: dict[int, socket.socket]) -> None:
        self._socks = socks
        self._stash: dict[tuple[int, int], list[bytes]] = {}

    def send_one(self, peer: int, tag: int, payload: bytes) -> None:
        send_frame(self._socks[peer], payload, tag)

    def recv(self, peer: int, tag: int) -> bytes:
        stashed = self._stash.get((peer, tag))
        if stashed:
            return stashed.pop(0)
        sock = self._socks[peer]
        while True:
            got_tag, payload = recv_frame(sock)
            if got_tag == tag:
                return payload
            self._stash.setdefault((peer, got_tag), []).append(payload)

    def close(self) -> None:
        for sock in self._socks.values():
            _close_quietly(sock)
        self._socks.clear()
        self._stash.clear()


def _build_peer_mesh(
    rank: int,
    grid: RankGrid,
    listener: socket.socket,
    peers_book: dict[int, tuple[str, int]],
    timeout: float,
) -> _SocketPeers:
    """Connect this rank to every Cartesian neighbour (higher dials lower)."""
    neighbors = sorted(
        {grid.neighbor(rank, mu, d) for mu in range(4) for d in (+1, -1)} - {rank}
    )
    socks: dict[int, socket.socket] = {}
    try:
        for nb in neighbors:
            if nb < rank:
                sock = _dial(tuple(peers_book[nb]), timeout, f"rank {rank} peer mesh")
                send_frame(sock, rank.to_bytes(4, "little"), _HELLO_TAG)
                socks[nb] = sock
        expect = [nb for nb in neighbors if nb > rank]
        listener.settimeout(timeout)
        while expect:
            try:
                sock, _ = listener.accept()
            except (TimeoutError, socket.timeout) as e:
                raise CommTimeoutError(
                    f"rank {rank}: peers {expect} never dialed in ({timeout}s)"
                ) from e
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            tag, payload = recv_frame(sock)
            if tag != _HELLO_TAG:
                raise TornFrameError(f"rank {rank}: peer hello had tag {tag}")
            dialer = int.from_bytes(payload, "little")
            socks[dialer] = sock
            if dialer in expect:
                expect.remove(dialer)
    except BaseException:
        for sock in socks.values():
            _close_quietly(sock)
        raise
    return _SocketPeers(socks)


# ---------------------------------------------------------------------------
# worker (rank process) side
# ---------------------------------------------------------------------------


class _SocketControl:
    """A rank's control link to the master: the framed-socket pipe end."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def recv(self) -> tuple:
        return recv_msg(self._sock)

    def send(self, reply: tuple) -> None:
        status, meta, raw = reply
        send_msg(self._sock, (status, meta), raw)


def run_worker(
    master_addr: tuple[str, int],
    rank: int | None = None,
    connect_timeout: float = 30.0,
) -> int:
    """Body of one rank process: rendezvous, build mesh, serve commands.

    ``rank`` is fixed for locally spawned workers and ``None`` for
    external joiners (the master assigns the next free rank).  Returns 0
    on a clean ``stop``; typed comm faults propagate to the caller (the
    CLI maps them to a nonzero exit code).

    The rendezvous dial retries until ``connect_timeout`` so worker and
    master start order does not matter across hosts; a rendezvous that
    stays refused for the whole window raises
    :class:`~repro.comm.errors.CommConnectError`.
    """
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            control = _dial(tuple(master_addr), connect_timeout, "worker rendezvous")
            break
        except (CommConnectError, CommTimeoutError):
            if time.monotonic() + 0.2 > deadline:
                raise
            time.sleep(0.2)
    control.settimeout(max(0.5, deadline - time.monotonic()))
    listener = None
    peers = None
    try:
        listener = _listen(control.getsockname()[0], 0, backlog=16)
        send_obj(
            control,
            {
                "proto": PROTOCOL_VERSION,
                "rank": rank,
                "pid": os.getpid(),
                "peer": listener.getsockname()[:2],
            },
        )
        cfg = recv_obj(control)
        my_rank = int(cfg["rank"])
        grid = RankGrid(tuple(cfg["dims"]))
        timeout = float(cfg["timeout"])
        control.settimeout(None)  # the master paces commands; block freely
        peers = _build_peer_mesh(my_rank, grid, listener, cfg["peers"], timeout)
        _close_quietly(listener)
        listener = None
        send_obj(control, ("ready", my_rank))
        return serve(RankExecutor(my_rank, grid, peers), _SocketControl(control))
    finally:
        if peers is not None:
            peers.close()
        _close_quietly(listener)
        _close_quietly(control)


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------


class TcpComm(RankPoolComm):
    """A communicator whose ranks are processes reachable only over TCP.

    Block storage is authoritative in the workers; the arrays
    :meth:`alloc_blocks` returns are the master's copies, which commands
    synchronise.  Teardown stops the workers, closes every socket, and
    joins or kills local rank processes even after a rank failure.
    """

    name = "tcp"

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        connect_timeout: float = 30.0,
        host: str = "127.0.0.1",
        port: int = 0,
        n_external: int = 0,
        start_method: str | None = None,
        fault_injector=None,
    ) -> None:
        super().__init__(grid, trace, timeout, fault_injector)
        self.connect_timeout = float(connect_timeout)
        self._listener = None
        self._socks: list = [None] * self.nranks
        self._pids: list[int | None] = [None] * self.nranks
        try:
            self._listener = _listen(host, port, backlog=max(16, self.nranks))
            self.address = self._listener.getsockname()[:2]
            n_local = self.nranks - int(n_external)
            if n_local < 0:
                raise ValueError(
                    f"n_external={n_external} exceeds {self.nranks} ranks"
                )
            for r in range(n_local):
                self._start_rank(start_method, r, run_worker, self.address, r)
            self._rendezvous()
        except BaseException:
            self.close()
            raise

    def _rendezvous(self) -> None:
        """Accept all ranks, assign numbers, broadcast the address book."""
        grid = self.grid
        deadline = time.monotonic() + self.connect_timeout
        joined: list[tuple[socket.socket, dict]] = []
        while len(joined) < grid.nranks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = grid.nranks - len(joined)
                raise CommTimeoutError(
                    f"rendezvous: {missing} of {grid.nranks} rank(s) never "
                    f"connected within {self.connect_timeout}s"
                )
            self._listener.settimeout(remaining)
            try:
                sock, _ = self._listener.accept()
            except (TimeoutError, socket.timeout) as e:
                missing = grid.nranks - len(joined)
                raise CommTimeoutError(
                    f"rendezvous: {missing} of {grid.nranks} rank(s) never "
                    f"connected within {self.connect_timeout}s"
                ) from e
            sock.settimeout(self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = recv_obj(sock)
            if hello.get("proto") != PROTOCOL_VERSION:
                _close_quietly(sock)
                raise CommConnectError(
                    f"rendezvous: protocol mismatch ({hello.get('proto')!r})"
                )
            joined.append((sock, hello))

        taken = {h["rank"] for _, h in joined if h["rank"] is not None}
        free = iter(r for r in grid.all_ranks() if r not in taken)
        book: dict[int, tuple[str, int]] = {}
        for sock, hello in joined:
            r = hello["rank"] if hello["rank"] is not None else next(free)
            r = int(r)
            if self._socks[r] is not None:
                raise CommConnectError(f"rendezvous: rank {r} joined twice")
            self._socks[r] = sock
            self._pids[r] = int(hello["pid"])
            book[r] = tuple(hello["peer"])
        for r in grid.all_ranks():
            send_obj(
                self._socks[r],
                {"rank": r, "dims": grid.dims, "timeout": self.timeout, "peers": book},
            )
        for r in grid.all_ranks():
            reply = recv_obj(self._socks[r])
            if reply != ("ready", r):
                raise CommConnectError(f"rank {r}: bad ready handshake {reply!r}")

    # -- transport hooks ------------------------------------------------------

    def _send(self, rank: int, cmd: tuple, payload: bytes | None) -> None:
        sock = self._socks[rank]
        if sock is None:
            raise CommPeerError("no control socket")
        sock.settimeout(self.timeout)
        send_msg(sock, cmd, payload)

    def _recv(self, rank: int, timeout: float) -> tuple:
        sock = self._socks[rank]
        sock.settimeout(timeout)
        head, raw = recv_msg(sock)
        if not (isinstance(head, tuple) and len(head) == 2):
            raise TornFrameError(f"ack is not a (status, meta) pair: {type(head).__name__}")
        return (*head, raw)

    def _sever(self, rank: int) -> None:
        _close_quietly(self._socks[rank])

    def _release(self) -> None:
        for sock in self._socks:
            _close_quietly(sock)
        self._reap_workers()
        for proc in self._workers:
            if proc is not None:
                try:
                    proc.close()  # release the sentinel fd
                except Exception:
                    pass
        self._workers = [None] * self.nranks
        _close_quietly(self._listener)
        self._listener = None
        self._socks = [None] * self.nranks


# ---------------------------------------------------------------------------
# CLI: join a rendezvous from another host
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.comm.tcp --connect host:port [--rank N]``.

    Runs one rank process that joins a :class:`TcpComm` rendezvous —
    started on another host with ``n_external`` ranks reserved — and
    serves commands until the master stops it.
    """
    import argparse
    import sys

    p = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="rendezvous address of the master's TcpComm",
    )
    p.add_argument(
        "--rank", type=int, default=None, help="claim a specific rank (default: assigned)"
    )
    p.add_argument(
        "--connect-timeout", type=float, default=30.0, help="rendezvous deadline [s]"
    )
    args = p.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    try:
        return run_worker(
            (host, int(port)), rank=args.rank, connect_timeout=args.connect_timeout
        )
    except CommError as e:
        print(f"tcp worker: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
