"""Gauge-configuration storage in the :mod:`repro.io.container` format.

A configuration is one container with a single array ``u`` (the links,
shape ``(4, T, Z, Y, X, 3, 3)``, so the file carries its own lattice
geometry) and the caller's provenance metadata (coupling, trajectory
number, plaquette stamp) as its ``meta``, mirroring the ILDG-style headers
of production storage.  Writes are atomic and reads verify the archive,
version, dtype, shape and CRC32 before a field is handed back.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.fields import GaugeField
from repro.io.container import CorruptFileError, read_container, write_container
from repro.lattice import Lattice4D

__all__ = [
    "CorruptConfigError",
    "save_gauge",
    "load_gauge",
    "save_ensemble",
    "load_ensemble",
]

#: A stored configuration failed validation; a :class:`ValueError`.
CorruptConfigError = CorruptFileError


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_gauge(path: str | Path, gauge: GaugeField, **metadata) -> Path:
    """Write one configuration atomically, with its metadata; returns the path."""
    return write_container(_npz_path(path), {"u": gauge.u}, metadata)


def load_gauge(path: str | Path, guard=None) -> tuple[GaugeField, dict]:
    """Read a configuration and its metadata.

    Raises :class:`CorruptConfigError` when the container fails any of its
    checks (see :func:`repro.io.container.read_container`) or holds no
    ``(4, T, Z, Y, X, 3, 3)`` link array.

    ``guard`` (a :class:`~repro.guard.GuardPolicy`, level name, or None for
    the ``REPRO_GUARD`` environment resolution) adds physics validation on
    top of the byte-level CRC: per-link SU(3) unitarity drift and plaquette
    bounds.  ``detect`` raises :class:`~repro.guard.SDCDetected` on
    violation; ``heal`` reprojects the bad links in place and records
    ``meta["healed_links"]``.
    """
    path = _npz_path(path)
    arrays, meta = read_container(path)
    u = arrays.get("u")
    if u is None or u.ndim != 7 or u.shape[0] != 4 or u.shape[-2:] != (3, 3):
        raise CorruptConfigError(f"{path}: no (4, T, Z, Y, X, 3, 3) link array 'u'")
    from repro.guard import check_gauge, resolve_policy

    policy = resolve_policy(guard)
    if policy.enabled:
        u = np.ascontiguousarray(u)  # heal mutates in place
        report = check_gauge(u, policy, context=f"load_gauge:{path.name}")
        if report.healed_links:
            meta["healed_links"] = report.healed_links
    return GaugeField(Lattice4D(u.shape[1:5]), u), meta


def save_ensemble(directory: str | Path, configs: list[GaugeField], **metadata) -> list[Path]:
    """Write a numbered ensemble ``cfg_0000.npz, ...`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, g in enumerate(configs):
        p = directory / f"cfg_{i:04d}.npz"
        save_gauge(p, g, index=i, **metadata)
        paths.append(p)
    return paths


def load_ensemble(directory: str | Path) -> list[tuple[GaugeField, dict]]:
    """Read every configuration of an ensemble directory, in index order."""
    directory = Path(directory)
    paths = sorted(directory.glob("cfg_*.npz"))
    if not paths:
        raise FileNotFoundError(f"no cfg_*.npz files in {directory}")
    return [load_gauge(p) for p in paths]
