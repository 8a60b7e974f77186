"""Domain decomposition and the SPMD communication layer.

The paper's runs decompose the global lattice over a 4-D Cartesian grid of
MPI ranks mapped onto the BlueGene/Q torus.  We reproduce the *data path*
exactly — scatter to rank-local arrays, pack faces, exchange halos, stencil
over the interior — behind one communicator protocol with several backends:

``VirtualComm``
    executes all ranks sequentially inside one process, recording every
    message in a :class:`CommTrace` that the machine model converts into
    time at scale;
``ShmComm``, ``TcpComm``
    run each rank as a real OS process, so halo exchange and the
    interior/boundary-split Dslash execute genuinely in parallel.  One
    master class (:class:`~repro.comm.pool.RankPoolComm`) and one rank
    program (:mod:`repro.comm.executor`) serve both; a transport only
    moves bytes — shared-memory segments on one node's cores, or
    CRC-framed TCP sockets so ranks may live on *different hosts*
    (``python -m repro.comm.tcp --connect`` joins ranks from elsewhere).

Select with :func:`make_comm` / the ``REPRO_COMM`` environment variable.
The substitution is validated by the backend-parametrised parity suite
(``tests/test_comm_backends.py``), which requires the decomposed Dslash,
halo exchange, reductions, and CG iterates to agree bit-for-bit across
backends and with the single-domain kernel for every rank grid.
"""

from repro.comm.rankgrid import RankGrid
from repro.comm.trace import CommTrace, HaloEvent, CollectiveEvent, ComputeEvent
from repro.comm.vcomm import VirtualComm
from repro.comm.shm import ShmComm
from repro.comm.tcp import TcpComm
from repro.comm.decomposition import Decomposition
from repro.comm.errors import (
    CommError,
    CommConnectError,
    CommPeerError,
    CommTimeoutError,
    TornFrameError,
)
from repro.comm.halo import (
    HaloField,
    halo_exchange,
    add_halo,
    strip_halo,
    face_bytes,
    face_bytes_of_shape,
    face_index,
    record_exchange_trace,
)
from repro.comm.lifecycle import close_live_comms
from repro.comm.registry import (
    COMM_ENV_VAR,
    DEFAULT_COMM,
    available_comms,
    resolve_comm_name,
    make_comm,
)
from repro.comm.topology import TorusTopology

__all__ = [
    "RankGrid",
    "CommTrace",
    "HaloEvent",
    "CollectiveEvent",
    "ComputeEvent",
    "VirtualComm",
    "ShmComm",
    "TcpComm",
    "Decomposition",
    "CommError",
    "CommConnectError",
    "CommPeerError",
    "CommTimeoutError",
    "TornFrameError",
    "HaloField",
    "halo_exchange",
    "add_halo",
    "strip_halo",
    "face_bytes",
    "face_bytes_of_shape",
    "face_index",
    "record_exchange_trace",
    "close_live_comms",
    "COMM_ENV_VAR",
    "DEFAULT_COMM",
    "available_comms",
    "resolve_comm_name",
    "make_comm",
    "TorusTopology",
]
