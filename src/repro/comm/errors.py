"""Typed communicator fault taxonomy.

Every failure a distributed backend can surface — a refused rendezvous, a
rank process dying mid-exchange, a frame that arrives torn, a command that
never acks — maps onto one of these classes.  All of them subclass
:class:`CommError`, itself a ``RuntimeError``, so the campaign layer's
:func:`~repro.campaign.runner.run_resilient` retry loop (which catches
``RuntimeError``) supervises socket faults with no extra wiring, while
tests and drills can still assert the *specific* failure mode.
"""

from __future__ import annotations

__all__ = [
    "CommError",
    "CommConnectError",
    "CommPeerError",
    "CommTimeoutError",
    "TornFrameError",
]


class CommError(RuntimeError):
    """Base class of all communicator faults (retryable by ``run_resilient``)."""


class CommConnectError(CommError):
    """Establishing a connection failed (refused, unreachable, bad address)."""


class CommTimeoutError(CommError):
    """A connect, send, or recv exceeded its hard deadline."""


class CommPeerError(CommError):
    """A peer (rank process or master) died or closed its end mid-protocol."""


class TornFrameError(CommError):
    """A length-prefixed frame arrived incomplete or failed its CRC check.

    Raised instead of ever handing partial bytes to the caller: a rank
    killed mid-send must surface as a typed fault, not as silently
    corrupted halo data.
    """
