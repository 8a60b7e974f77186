"""Durable files: the one self-verifying :mod:`repro.io.container` (configurations,
store objects and checkpoints), configuration and ensemble I/O, atomic writes."""

from repro.io.atomic import atomic_write_bytes, fsync_directory
from repro.io.config_io import (
    CorruptConfigError,
    save_gauge,
    load_gauge,
    save_ensemble,
    load_ensemble,
)

__all__ = [
    "CorruptConfigError",
    "atomic_write_bytes",
    "fsync_directory",
    "save_gauge",
    "load_gauge",
    "save_ensemble",
    "load_ensemble",
]
