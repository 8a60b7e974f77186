"""The one durable file format: a self-verifying npz container.

Gauge configurations, store objects and campaign checkpoints are all an
*uncompressed* ``npz`` of named arrays plus one ``meta`` member, a
``uint8`` array of UTF-8 JSON::

    {"version": 1, "meta": {...caller's metadata...},
     "arrays": {"u": {"dtype": "<c16", "shape": [4, 2, 2, 2, 2, 3, 3], "crc32": 123}}}

The zip member CRCs (checked by :mod:`zipfile` as members are read) cover
the JSON and each ``.npy`` header; the per-array dtype, shape and CRC32
cover the decoded arrays.  :func:`write_container` is the one writer
(atomic, via :func:`~repro.io.atomic.atomic_write_bytes`) and
:func:`read_container` the one reader: *every* decode failure — a
truncation, a flipped bit anywhere, a foreign or stamp-less file — is a
:class:`CorruptFileError`.  Chroma (QIO/LIME) and tmLQCD (ILDG/LIME)
likewise write fields and metadata as checksummed records of one container.
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path

import numpy as np

from repro.io.atomic import atomic_write_bytes

__all__ = ["CONTAINER_VERSION", "CorruptFileError", "read_container", "write_container"]

CONTAINER_VERSION = 1

_META = "meta"


class CorruptFileError(ValueError):
    """A durable file failed validation (archive, version, dtype, shape, CRC32);
    ``CorruptConfigError`` and ``CorruptCheckpointError`` are its other names."""


def _stamps(arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Each array's dtype, shape and CRC32 of its C-order bytes."""
    return {
        name: {"dtype": a.dtype.str, "shape": list(a.shape), "crc32": _crc32(a)}
        for name, a in arrays.items()
    }


def _crc32(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(a))


def pack_members(members: dict[str, np.ndarray]) -> bytes:
    """Serialise named arrays into uncompressed npz bytes (no validation)."""
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def unpack_members(blob: bytes) -> dict[str, np.ndarray]:
    """Decode every member of npz bytes (no validation; raises what numpy does)."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_container(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> Path:
    """Write ``arrays`` and the JSON-able ``meta`` as one atomic container."""
    if _META in arrays:
        raise ValueError(f"array name {_META!r} is reserved for the metadata member")
    header = {"version": CONTAINER_VERSION, "meta": meta, "arrays": _stamps(arrays)}
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    members = {**arrays, _META: np.frombuffer(text, dtype=np.uint8)}
    return atomic_write_bytes(path, pack_members(members))


def read_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read and verify one container; returns ``(arrays, meta)``.

    Checks, in order: the archive (zip structure and member CRCs), the
    format version, then each array's name, dtype, shape and CRC32 against
    its stamp.  A missing file raises :class:`FileNotFoundError`; any other
    failure raises :class:`CorruptFileError`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as e:
        raise CorruptFileError(f"unreadable file {path}: {e}") from e
    try:
        members = unpack_members(blob)
        header = json.loads(members.pop(_META).tobytes().decode("utf-8"))
        version, stamps, meta = header["version"], header["arrays"], header["meta"]
        found = _stamps(members)
    except Exception as e:  # damaged bytes fail anywhere in zipfile/zlib/npy/json
        raise CorruptFileError(f"{path}: unreadable container ({type(e).__name__}: {e})") from e
    if version != CONTAINER_VERSION:
        raise CorruptFileError(f"{path}: version {version!r} != supported {CONTAINER_VERSION}")
    if found != stamps:
        raise CorruptFileError(f"{path}: arrays {found} do not match their stamps {stamps}")
    return members, meta
