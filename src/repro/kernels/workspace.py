"""Scratch-buffer arena for allocation-free hot loops.

Every production Dslash keeps its shift buffers, half spinors and link
tables in preallocated scratch memory; the NumPy analogue is a
:class:`Workspace` that hands out reusable arrays keyed by
``(shape, dtype, slot)``.  The ``slot`` tag distinguishes buffers that
must be alive simultaneously (e.g. the shifted spinor and the operator
output inside one kernel invocation).

One slot holds one live request.  Behind every ``(slot, dtype)`` there is
one buffer, sized for the largest request so far, and each shape asked
of it is a view of its start: the width-1 and width-3 sub-blocks of a
batched solve, or the last, narrower tile of a hop, reuse the width-4
block's or the first tile's memory instead of keeping their own.  A
buffer a caller holds is therefore valid until the next request for the
same slot, whatever its shape.  The exact-key view is cached, so a
repeated request is one dict lookup; when a larger request grows the
buffer, the cached views of that slot are re-pointed at the new one.

Every fused kernel on a thread takes its scratch from that thread's one
arena (:func:`thread_workspace`), so its operators share one set of
buffers, sized by the largest of them, instead of keeping a set each.
The rule above spans them: a buffer a kernel returns stays valid until
the next call, by any kernel on that thread, that asks for the same
slot.  Another thread (a solve queue's dispatcher) has an arena of its
own.  The lattice shape is not part of a buffer's key: the rule holds
whatever the shape, so a request on another lattice takes a view too.

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
import threading

import numpy as np

__all__ = ["Workspace", "aligned_empty", "thread_workspace"]

_CACHE_LINE = 64


def aligned_empty(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` that starts on a cache-line boundary."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _view(buffer: np.ndarray, key: tuple) -> np.ndarray:
    """The array ``key`` = ``(shape, dtype, slot)`` names, on the start of ``buffer``."""
    shape, dtype, _ = key
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return buffer[:nbytes].view(dtype).reshape(shape)


class Workspace:
    """A keyed arena of reusable scratch arrays, one buffer per slot.

    The arena only ever grows: a buffer, once created for a
    ``(slot, dtype)``, is kept for the lifetime of the workspace (or until
    :meth:`clear`).  Solver hot loops therefore allocate on the first
    iteration only, and a narrower request never allocates at all.
    """

    def __init__(self) -> None:
        #: (shape, dtype, slot) -> the view handed out for it.
        self._views: dict[tuple, np.ndarray] = {}
        #: (slot, dtype) -> the aligned bytes those views share.
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, shape, dtype, slot: str | int = 0) -> np.ndarray:
        """Return the (possibly stale) scratch buffer for this key."""
        key = (tuple(shape), np.dtype(dtype).str, slot)
        view = self._views.get(key)
        if view is None:
            view = self._miss(key)
        return view

    def _miss(self, key: tuple) -> np.ndarray:
        """A view for a key not asked before; grows its slot's buffer if needed."""
        shape, dtype, slot = key
        base = (slot, dtype)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(base)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self._buffers[base] = aligned_empty((nbytes,), np.uint8)
            for other in self._views:
                if (other[2], other[1]) == base:
                    self._views[other] = _view(buffer, other)
        view = self._views[key] = _view(buffer, key)
        return view

    def zeros(self, shape, dtype, slot: str | int = 0) -> np.ndarray:
        """Like :meth:`get` but zero-filled."""
        buf = self.get(shape, dtype, slot)
        buf[...] = 0
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        """The number of distinct keys served."""
        return len(self._views)

    def clear(self) -> None:
        """Drop every buffer (the arena repopulates on demand)."""
        self._views.clear()
        self._buffers.clear()


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.workspace = Workspace()


_PER_THREAD = _PerThread()


def thread_workspace() -> Workspace:
    """The calling thread's arena, which every fused kernel on it shares."""
    return _PER_THREAD.workspace
