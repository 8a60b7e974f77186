"""Backend-agnostic registry of open communicators + the atexit sweep.

Every process-owning communicator (``shm``, ``tcp``) registers
itself here on construction and deregisters in ``close()``.  The single
``atexit`` sweep closes stragglers so a crashing driver (unhandled
exception, ``sys.exit`` mid-campaign) cannot leak ``/dev/shm`` segments,
listening sockets, or orphan rank processes, whichever backend it held
open.  A SIGKILLed master is unprotectable by definition — worker
processes are daemonic and die with it, and shm segment names are
PID-scoped, so nothing persists either way.
"""

from __future__ import annotations

import atexit
import weakref

__all__ = ["register_live_comm", "discard_live_comm", "close_live_comms", "LIVE_COMMS"]

#: Weak so a collected communicator (whose ``__del__`` already closed it)
#: does not pin itself alive just by having been registered.
LIVE_COMMS: "weakref.WeakSet" = weakref.WeakSet()


def register_live_comm(comm) -> None:
    """Track an open communicator for the atexit sweep."""
    LIVE_COMMS.add(comm)


def discard_live_comm(comm) -> None:
    """Stop tracking a communicator (its ``close()`` ran)."""
    LIVE_COMMS.discard(comm)


def close_live_comms() -> None:
    """Close every still-open communicator (idempotent; registered atexit)."""
    for comm in list(LIVE_COMMS):
        comm.close()


atexit.register(close_live_comms)
