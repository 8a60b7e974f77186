"""Scratch-buffer arena for allocation-free hot loops.

Every production Dslash keeps its shift buffers, half spinors and link
tables in preallocated scratch memory; the NumPy analogue is a
:class:`Workspace` that hands out reusable arrays keyed by
``(shape, dtype, slot)``.  The ``slot`` tag distinguishes buffers of the
same shape/dtype that must be alive simultaneously (e.g. the shifted
spinor and the operator output inside one kernel invocation).

Buffers are returned *uninitialised* (``np.empty`` semantics on first
use, stale contents on reuse) — callers must overwrite every element
they read.  Use :meth:`Workspace.zeros` when a zero-filled buffer is
required.

Buffers start on a cache-line boundary.  ``np.empty`` promises 16 bytes,
and where a buffer lands within a line then depends on everything the
process allocated before it; a plane stack whose rows straddle lines
costs the colour multiply up to 1.8x (measured on AVX-512: every vector
store splits), which made the same solve 15-20 % faster or slower from
one process to the next.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "aligned_empty"]

_CACHE_LINE = 64


def aligned_empty(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` that starts on a cache-line boundary."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class Workspace:
    """A keyed arena of reusable scratch arrays.

    The arena only ever grows: a buffer, once created for a key, is kept
    for the lifetime of the workspace (or until :meth:`clear`).  Solver
    hot loops therefore allocate on the first iteration only.
    """

    def __init__(self) -> None:
        self._arena: dict[tuple, np.ndarray] = {}

    def get(self, shape, dtype, slot: str | int = 0) -> np.ndarray:
        """Return the (possibly stale) scratch buffer for this key."""
        key = (tuple(shape), np.dtype(dtype).str, slot)
        buf = self._arena.get(key)
        if buf is None:
            buf = self._arena[key] = aligned_empty(key[0], dtype)
        return buf

    def zeros(self, shape, dtype, slot: str | int = 0) -> np.ndarray:
        """Like :meth:`get` but zero-filled."""
        buf = self.get(shape, dtype, slot)
        buf[...] = 0
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(b.nbytes for b in self._arena.values())

    def __len__(self) -> int:
        return len(self._arena)

    def clear(self) -> None:
        """Drop every buffer (the arena repopulates on demand)."""
        self._arena.clear()
