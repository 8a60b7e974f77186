"""Fault injection for the campaign layer.

Three fault surfaces, each deterministic and schedulable so recovery tests
are exact rather than probabilistic:

* **Process faults** (:class:`FaultPlan`): fired by the runner at trajectory
  boundaries — raise :class:`InjectedCrash` (clean in-process crash),
  SIGKILL the whole driver (real crash, exercises crash consistency of the
  ledger/checkpoint fsync discipline), SIGKILL one ShmComm rank (node
  failure), or corrupt a checkpoint on disk.
* **Comm faults** (:class:`FaultInjector`): consumed by the hooks inside
  :meth:`repro.comm.pool.RankPoolComm._command` (every process backend's
  command sweep) — kill a rank just before a command is sent, delay an
  ack, or drop an ack so the master sees a lost message.
* **Storage faults** (:func:`corrupt_checkpoint`): truncate a checkpoint,
  flip a payload byte (CRC mismatch), stamp a wrong version, or break the
  zip signature, to prove the store falls back to the previous good
  checkpoint.
* **Silent data corruption** (:func:`flip_bit`, :meth:`FaultPlan.
  flip_gauge_bit_at`, :class:`FaultedOperator`): deterministic in-memory
  bit flips in gauge links, spinors, or a solver's operator stream — the
  faults the :mod:`repro.guard` layer exists to catch.  ``flip_bit`` is
  XOR-based and therefore self-inverse: applying it twice restores the
  original bits exactly.
"""

from __future__ import annotations

import io
import json
import os
import signal
import zipfile
from pathlib import Path

import numpy as np

from repro.dirac.operator import LinearOperator
from repro.io.container import pack_members, unpack_members

__all__ = [
    "InjectedCrash",
    "FaultPlan",
    "FaultInjector",
    "FaultedOperator",
    "corrupt_checkpoint",
    "flip_bit",
]


def flip_bit(arr: np.ndarray, flat_index: int, bit: int = 52) -> None:
    """XOR one bit of one float64 word of ``arr`` in place (deterministic).

    ``arr`` may be real or complex float64 — the buffer is reinterpreted as
    uint64 words, so a complex array exposes two words per element.  The
    default ``bit=52`` flips the lowest exponent bit: the value doubles (or
    halves), staying finite, which models the nastiest real-world SDC — a
    silently wrong number that every downstream computation digests without
    complaint.  ``bit=62`` (top exponent bit) instead produces a ~1e307
    outlier that overflows downstream arithmetic.  Self-inverse: flipping
    the same bit twice restores the original bits.
    """
    words = arr.reshape(-1).view(np.uint64)
    words[flat_index % words.size] ^= np.uint64(1) << np.uint64(bit)


class FaultedOperator(LinearOperator):
    """Wrap an operator and flip one bit of its output at one application.

    Models transient corruption of solver scratch / spinor data in the
    middle of a Krylov solve: the ``at_apply``-th application (counting
    both forward and dagger, 1-based) returns a silently corrupted field,
    every other application is untouched.  Used by the guard tests to prove
    the true-residual replay catches what the recurrence cannot see.
    """

    def __init__(
        self,
        op: LinearOperator,
        at_apply: int,
        flat_index: int = 0,
        bit: int = 52,
    ) -> None:
        super().__init__()
        self.op = op
        self.at_apply = int(at_apply)
        self.flat_index = int(flat_index)
        self.bit = int(bit)
        self.fired = False
        self.flops_per_apply = op.flops_per_apply
        self._applications = 0

    def _maybe_corrupt(self, out: np.ndarray) -> np.ndarray:
        self._applications += 1
        if not self.fired and self._applications == self.at_apply:
            self.fired = True
            flip_bit(out, self.flat_index, self.bit)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._maybe_corrupt(self.op.apply(x))

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        return self._maybe_corrupt(self.op.apply_dagger(x))

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._maybe_corrupt(self.op.apply_into(x, out))

    def apply_dagger_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self._maybe_corrupt(self.op.apply_dagger_into(x, out))


class InjectedCrash(RuntimeError):
    """A deliberately injected crash (the in-process analogue of SIGKILL)."""


class FaultPlan:
    """Step-scheduled faults fired at trajectory boundaries by the runner.

    Each fault fires exactly once: after the campaign resumes and replays
    the same step, the consumed fault stays quiet, so a plan describes one
    failure incident rather than an infinite crash loop.
    """

    def __init__(self) -> None:
        self._faults: list[dict] = []

    def crash_at(self, step: int) -> "FaultPlan":
        """Raise :class:`InjectedCrash` just before trajectory ``step`` runs."""
        self._faults.append({"kind": "crash", "step": int(step), "fired": False})
        return self

    def sigkill_at(self, step: int) -> "FaultPlan":
        """SIGKILL the driver process just before trajectory ``step`` runs."""
        self._faults.append({"kind": "sigkill", "step": int(step), "fired": False})
        return self

    def kill_rank_at(self, step: int, rank: int) -> "FaultPlan":
        """Kill comm rank ``rank`` just before trajectory ``step``.

        Works with any backend exposing ``kill_rank`` (shm: SIGKILL the
        worker process; tcp: SIGKILL a local rank or sever an external
        rank's control socket)."""
        self._faults.append(
            {"kind": "kill_rank", "step": int(step), "rank": int(rank), "fired": False}
        )
        return self

    def corrupt_latest_at(self, step: int, mode: str = "flip-payload") -> "FaultPlan":
        """Corrupt the newest on-disk checkpoint just before ``step`` runs."""
        self._faults.append(
            {"kind": "corrupt", "step": int(step), "mode": mode, "fired": False}
        )
        return self

    def flip_gauge_bit_at(
        self, step: int, flat_index: int = 0, bit: int = 52
    ) -> "FaultPlan":
        """Flip one bit of the in-memory gauge field just before ``step``.

        The silent-data-corruption fault: nothing raises, the stream keeps
        producing plausible-looking numbers.  Only a guard (or a divergent
        ledger) exposes it.  See :func:`flip_bit` for the bit semantics.
        """
        self._faults.append(
            {
                "kind": "flip_gauge",
                "step": int(step),
                "index": int(flat_index),
                "bit": int(bit),
                "fired": False,
            }
        )
        return self

    def fire(self, step: int, comm=None, store=None, gauge=None) -> None:
        """Fire (and consume) every unfired fault scheduled for ``step``."""
        for f in self._faults:
            if f["fired"] or f["step"] != step:
                continue
            f["fired"] = True
            kind = f["kind"]
            if kind == "crash":
                raise InjectedCrash(f"injected crash before trajectory {step}")
            if kind == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif kind == "kill_rank":
                if comm is None or not hasattr(comm, "kill_rank"):
                    raise InjectedCrash(
                        f"kill_rank fault at step {step} but no process-parallel "
                        "comm (shm/tcp) attached"
                    )
                comm.kill_rank(f["rank"])
            elif kind == "corrupt":
                if store is None:
                    raise InjectedCrash(
                        f"corrupt fault at step {step} but no checkpoint store"
                    )
                steps = store.steps()
                if steps:
                    corrupt_checkpoint(store.path_for(steps[-1]), f["mode"])
            elif kind == "flip_gauge":
                if gauge is None:
                    raise InjectedCrash(
                        f"flip_gauge fault at step {step} but no gauge field attached"
                    )
                flip_bit(gauge.u, f["index"], f["bit"])


class FaultInjector:
    """Command-level fault schedule consumed by the ``_command`` hooks of
    every process-parallel backend (``ShmComm``, ``TcpComm``).

    Faults key on the comm's monotonically increasing command index (the
    first command a comm issues has index 1) and a rank, so a test can say
    "drop rank 1's ack of the third command" and get exactly that.
    """

    def __init__(self) -> None:
        self._faults: list[dict] = []

    def kill_rank(self, rank: int, at_command: int) -> "FaultInjector":
        self._faults.append(
            {"kind": "kill", "rank": int(rank), "cmd": int(at_command), "fired": False}
        )
        return self

    def delay_ack(self, rank: int, at_command: int, seconds: float) -> "FaultInjector":
        self._faults.append(
            {
                "kind": "delay",
                "rank": int(rank),
                "cmd": int(at_command),
                "seconds": float(seconds),
                "fired": False,
            }
        )
        return self

    def drop_ack(self, rank: int, at_command: int) -> "FaultInjector":
        self._faults.append(
            {"kind": "drop", "rank": int(rank), "cmd": int(at_command), "fired": False}
        )
        return self

    # -- hooks called from repro.comm.pool.RankPoolComm._command --------------

    def fire_pre_send(self, comm, command_index: int, rank: int) -> None:
        for f in self._faults:
            if (
                f["kind"] == "kill"
                and not f["fired"]
                and f["cmd"] == command_index
                and f["rank"] == rank
            ):
                f["fired"] = True
                comm.kill_rank(rank)

    def fire_pre_recv(self, comm, command_index: int, rank: int) -> tuple[float, bool]:
        """Return ``(delay_seconds, drop_ack)`` for this command/rank."""
        delay, drop = 0.0, False
        for f in self._faults:
            if f["fired"] or f["cmd"] != command_index or f["rank"] != rank:
                continue
            if f["kind"] == "delay":
                f["fired"] = True
                delay += f["seconds"]
            elif f["kind"] == "drop":
                f["fired"] = True
                drop = True
        return delay, drop


def corrupt_checkpoint(path: str | Path, mode: str = "flip-payload") -> None:
    """Damage a checkpoint file on disk in a controlled way.

    ``truncate``     keep only the first half of the file;
    ``flip-payload`` XOR one byte in the middle of the largest array member
                     (archive intact → CRC mismatch);
    ``bad-version``  rewrite the metadata member with an unsupported version;
    ``bad-magic``    overwrite the zip signature of the first member.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if mode == "truncate":
        blob = blob[: len(blob) // 2]
    elif mode == "flip-payload":
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            info = max(zf.infolist(), key=lambda i: i.file_size)
        head = info.header_offset
        name_len = int.from_bytes(blob[head + 26 : head + 28], "little")
        extra_len = int.from_bytes(blob[head + 28 : head + 30], "little")
        blob[head + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    elif mode == "bad-version":
        members = unpack_members(bytes(blob))
        header = json.loads(members["meta"].tobytes())
        header["version"] = -1
        members["meta"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        blob = pack_members(members)
    elif mode == "bad-magic":
        blob[:4] = b"XXXX"
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(bytes(blob))
