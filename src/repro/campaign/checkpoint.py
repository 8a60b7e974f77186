"""Crash-consistent checkpoint store for long-running campaigns.

A checkpoint is one :mod:`repro.io.container` file: the named arrays (gauge
links) plus a JSON ``meta`` dict (trajectory index, serialised RNG state,
driver counters, plaquette stamp), every byte of it under a CRC — the same
format, writer and reader as gauge configurations and store objects.
Writes are atomic, so a crash mid-save leaves either the previous complete
checkpoint or none — never a torn file.

:class:`CheckpointStore` manages a directory of numbered checkpoints.
``latest()`` walks backwards over the stored steps and returns the newest
checkpoint that validates, recording what it skipped — a truncated file,
a flipped bit, or a foreign version costs at most one checkpoint
interval, never a silent load of garbage (tmLQCD's resumable trajectory
streams and Chroma's XML task chains follow the same discipline).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.io.container import CorruptFileError, read_container, write_container
from repro.telemetry import registry as _tm_registry
from repro.telemetry.spans import span
from repro.telemetry.state import STATE

__all__ = [
    "CorruptCheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "CheckpointStore",
]

#: A checkpoint file failed validation (archive, version, dtype, shape, CRC32).
CorruptCheckpointError = CorruptFileError


def write_checkpoint(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict
) -> Path:
    """Serialise ``arrays`` + ``meta`` into one atomic, CRC-stamped file."""
    with span("checkpoint_write", cat="campaign"):
        path = write_container(path, arrays, meta)
        if STATE.counting:
            reg = _tm_registry.get_registry()
            reg.add("campaign/checkpoints", 1)
            reg.add("campaign/checkpoint_bytes", path.stat().st_size)
        return path


def read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load and validate one checkpoint; raise :class:`CorruptCheckpointError`.

    A missing file is corrupt too: the store lists steps by file name.
    """
    try:
        return read_container(path)
    except FileNotFoundError as e:
        raise CorruptCheckpointError(f"missing checkpoint {path}") from e


class CheckpointStore:
    """A directory of numbered, self-verifying checkpoints.

    ``keep`` bounds disk usage while retaining enough history for the
    corruption-fallback path: the newest ``keep`` checkpoints survive
    pruning, so a bad newest file still leaves ``keep - 1`` candidates.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        #: ``(path, reason)`` pairs skipped by the last ``latest()`` call.
        self.skipped: list[tuple[Path, str]] = []

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt_{step:08d}.rpckpt"

    def steps(self) -> list[int]:
        """Stored checkpoint steps, ascending (by filename, not validity)."""
        out = []
        for p in self.directory.glob("ckpt_*.rpckpt"):
            try:
                out.append(int(p.stem.split("_")[1]))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def save(self, step: int, arrays: dict[str, np.ndarray], meta: dict) -> Path:
        """Write checkpoint ``step`` atomically, then prune old ones."""
        path = write_checkpoint(self.path_for(step), arrays, {**meta, "step": int(step)})
        self._prune()
        return path

    def load(self, step: int) -> tuple[dict[str, np.ndarray], dict]:
        return read_checkpoint(self.path_for(step))

    def latest(self) -> tuple[int, dict[str, np.ndarray], dict] | None:
        """Newest checkpoint that validates, or ``None`` if none do.

        Corrupt candidates are skipped (recorded in :attr:`skipped`) —
        recovery falls back to the previous good checkpoint instead of
        loading garbage.
        """
        self.skipped = []
        for step in reversed(self.steps()):
            try:
                arrays, meta = self.load(step)
            except CorruptCheckpointError as e:
                self.skipped.append((self.path_for(step), str(e)))
                continue
            return step, arrays, meta
        return None

    def _prune(self) -> None:
        steps = self.steps()
        for step in steps[: -self.keep]:
            try:
                self.path_for(step).unlink()
            except OSError:
                pass
