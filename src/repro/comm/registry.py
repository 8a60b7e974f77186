"""Communicator registry: named SPMD backends behind one protocol.

One data path, several transports:

``virtual``
    :class:`~repro.comm.VirtualComm` — all ranks sequential in one
    process.  Exact, dependency-free, works at any rank count; scaling
    curves come from the machine model replaying its trace.
``shm``, ``tcp``
    One OS process per rank behind one master class
    (:class:`~repro.comm.pool.RankPoolComm`): real parallel halo exchange
    and overlapped Dslash, hard timeouts, typed faults, bit-for-bit
    identical results.  :class:`~repro.comm.shm.ShmComm` moves bytes
    through POSIX shared memory (E2/E3 measured on the host's cores),
    :class:`~repro.comm.tcp.TcpComm` through CRC-framed sockets (ranks may
    join from *other hosts* via ``python -m repro.comm.tcp --connect
    host:port``).

All three run on the standard library and NumPy alone, so every
registered name can be constructed, tested and measured on every host.

Selection precedence mirrors the kernel registry: explicit ``comm=``
argument > ``REPRO_COMM`` environment variable > the ``virtual`` default.
"""

from __future__ import annotations

import os

from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace
from repro.comm.vcomm import VirtualComm

__all__ = [
    "COMM_ENV_VAR",
    "DEFAULT_COMM",
    "available_comms",
    "resolve_comm_name",
    "make_comm",
]

COMM_ENV_VAR = "REPRO_COMM"
DEFAULT_COMM = "virtual"

_COMM_NAMES = ("shm", "tcp", "virtual")


def available_comms() -> tuple[str, ...]:
    """Registered communicator backend names, sorted."""
    return _COMM_NAMES


def resolve_comm_name(name: str | None = None) -> str:
    """Resolve a comm backend name: argument > ``$REPRO_COMM`` > default."""
    if name is None:
        name = os.environ.get(COMM_ENV_VAR, "").strip() or DEFAULT_COMM
    if name not in _COMM_NAMES:
        raise ValueError(
            f"unknown comm backend {name!r}; available: {available_comms()}"
        )
    return name


def make_comm(
    grid: RankGrid | tuple[int, int, int, int],
    name: str | None = None,
    trace: CommTrace | None = None,
    **kwargs,
):
    """Instantiate a communicator over ``grid`` by backend name.

    Backends are the entries of :func:`available_comms` (see the module
    docstring for what each one is).  Process-owning backends (every name
    except ``virtual``) own worker processes plus OS resources — close them
    (``with make_comm(...) as comm:`` or ``comm.close()``) when done; a
    shared ``atexit`` sweep (:func:`repro.comm.lifecycle.close_live_comms`)
    backstops drivers that die with one open.  Backend-specific keyword
    arguments (``timeout``, ``start_method``, ``fault_injector`` — the
    campaign layer's fault-injection hook — and for ``tcp`` also
    ``connect_timeout``, ``host``, ``port``, ``n_external``) are ignored
    by the ``virtual`` backend; ``virtual`` communicators satisfy the
    same context protocol as a no-op.
    """
    if not isinstance(grid, RankGrid):
        grid = RankGrid(tuple(grid))
    resolved = resolve_comm_name(name)
    if resolved == "shm":
        from repro.comm.shm import ShmComm

        return ShmComm(grid, trace=trace, **kwargs)
    if resolved == "tcp":
        from repro.comm.tcp import TcpComm

        return TcpComm(grid, trace=trace, **kwargs)
    if trace is not None:
        return VirtualComm(grid, trace=trace)
    return VirtualComm(grid)
