"""Optional ``mpi4py`` transport behind the same master-driven interface.

When ``mpi4py`` is importable, :class:`MpiComm` is the ``tcp`` backend
with every byte moved through MPI instead of raw sockets — the same
:class:`~repro.comm.pool.RankPoolComm` master, the same
:func:`repro.comm.executor.serve` rank program, commands that carry block
payloads, in-order ``allreduce_sum`` — so a site with a tuned MPI stack
(InfiniBand, slingshot, vendor collectives under ``MPI_Send``) gets that
fabric for free and results stay bit-identical to every other backend.
The rank processes are spawned dynamically with ``MPI.COMM_SELF.Spawn``.

The backend registers itself in :func:`repro.comm.registry.available_comms`
only when the import succeeds; requesting ``mpi`` explicitly without
``mpi4py`` raises the typed
:class:`~repro.comm.errors.CommUnavailableError` (the same degrade-loudly
pattern the kernel registry uses for ``numba``).  This container ships no
MPI, so the test suite exercises the degradation branch and the class
contract (``tests/test_comm_backends.py``: nothing public is defined
here, only transport hooks).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.comm.errors import CommTimeoutError, CommUnavailableError
from repro.comm.executor import PeerTransport, RankExecutor, serve
from repro.comm.pool import RankPoolComm
from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace

__all__ = ["MpiComm", "mpi_available", "require_mpi"]

#: Message tags on the spawned intercommunicator.
_TAG_CMD = 1
_TAG_ACK = 3


def mpi_available() -> bool:
    """True when ``mpi4py`` imports (checked lazily, never at module import)."""
    try:
        import mpi4py  # noqa: F401
    except Exception:
        return False
    return True


def require_mpi():
    """Return the ``mpi4py.MPI`` module or raise the typed unavailability."""
    try:
        from mpi4py import MPI
    except Exception as e:  # pragma: no cover - depends on site install
        raise CommUnavailableError(
            "comm backend 'mpi' requires mpi4py, which is not importable; "
            "install mpi4py or choose one of the always-available backends "
            "(see repro.comm.available_comms())"
        ) from e
    return MPI  # pragma: no cover - depends on site install


class _MpiPeers(PeerTransport):
    """Rank↔rank face transport over an MPI intracommunicator.

    Frame tags map onto MPI message tags directly, so the same
    ``(peer, tag)`` matching that the socket transport implements with a
    stash is done by the MPI matching engine.
    """

    def __init__(self, comm) -> None:  # pragma: no cover - needs mpi4py
        self._comm = comm

    def send_one(self, peer: int, tag: int, payload: bytes) -> None:  # pragma: no cover
        self._comm.Send([np.frombuffer(payload, dtype=np.uint8), len(payload)], dest=peer, tag=tag)

    def recv(self, peer: int, tag: int) -> bytes:  # pragma: no cover - needs mpi4py
        status = require_mpi().Status()
        self._comm.Probe(source=peer, tag=tag, status=status)
        buf = np.empty(status.Get_count(), dtype=np.uint8)
        self._comm.Recv([buf, buf.size], source=peer, tag=tag)
        return buf.tobytes()


class _MpiControl:
    """A rank's control link to the master: the intercommunicator pipe end."""

    def __init__(self, parent) -> None:  # pragma: no cover - needs mpi4py
        self._parent = parent

    def recv(self) -> tuple:  # pragma: no cover - needs mpi4py
        return self._parent.recv(source=0, tag=_TAG_CMD)

    def send(self, reply: tuple) -> None:  # pragma: no cover - needs mpi4py
        self._parent.send(reply, dest=0, tag=_TAG_ACK)


def _mpi_rank_main() -> None:  # pragma: no cover - runs inside mpiexec-spawned ranks
    """Entry point of a spawned MPI rank (see ``MpiComm.__init__``)."""
    MPI = require_mpi()
    parent = MPI.Comm.Get_parent()
    world = MPI.COMM_WORLD
    cfg = parent.bcast(None, root=0)
    grid = RankGrid(tuple(cfg["dims"]))
    serve(RankExecutor(world.Get_rank(), grid, _MpiPeers(world)), _MpiControl(parent))
    parent.Disconnect()


class MpiComm(RankPoolComm):
    """Master-driven communicator over dynamically spawned MPI ranks.

    Same block semantics as :class:`~repro.comm.tcp.TcpComm` (rank-resident
    blocks, master copies synchronised by command payloads); only the
    transport differs.  Constructing it without ``mpi4py`` raises
    :class:`~repro.comm.errors.CommUnavailableError`.
    """

    name = "mpi"

    def __init__(
        self,
        grid: RankGrid,
        trace: CommTrace | None = None,
        timeout: float = 120.0,
        fault_injector=None,
    ) -> None:
        MPI = require_mpi()  # raises CommUnavailableError when absent
        # pragma: no cover start - everything below needs a live MPI runtime
        super().__init__(grid, trace, timeout, fault_injector)
        self._inter = None
        try:
            self._inter = MPI.COMM_SELF.Spawn(
                sys.executable,
                args=["-c", "import repro.comm.mpi as m; m._mpi_rank_main()"],
                maxprocs=self.nranks,
            )
            self._inter.bcast({"dims": self.grid.dims}, root=MPI.ROOT)
        except BaseException:
            self.close()
            raise

    def _send(self, rank: int, cmd: tuple, payload: bytes | None) -> None:  # pragma: no cover
        self._inter.send((cmd, payload), dest=rank, tag=_TAG_CMD)

    def _recv(self, rank: int, timeout: float) -> tuple:  # pragma: no cover - needs mpi4py
        deadline = time.monotonic() + timeout
        while not self._inter.Iprobe(source=rank, tag=_TAG_ACK):
            if time.monotonic() > deadline:  # busy-poll, as a blocking MPI recv does
                raise CommTimeoutError(f"no reply within {timeout}s")
        return self._inter.recv(source=rank, tag=_TAG_ACK)

    def _release(self) -> None:  # pragma: no cover - needs mpi4py
        try:
            self._inter.Disconnect()
        except Exception:
            pass
