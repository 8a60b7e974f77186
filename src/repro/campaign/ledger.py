"""Append-only JSON-lines journal: the one record sequence of the repository.

Every durable journal — the campaign's ``ledger.jsonl``/``faults.jsonl``/
``metrics.jsonl``, the store's ``index.jsonl``, the cache's ``cache.jsonl``
and the fleet's ``fleet.jsonl`` — is a :class:`Ledger`.  Every record lands
as one fsynced JSON line, so after any crash a journal is a prefix of the
uninterrupted run's plus at most one torn trailing line, which
:meth:`Ledger.records` drops and the next :meth:`Ledger.append` cuts.
Journals keyed by trajectory pass their own ``step``; the store, cache and
fleet let :meth:`Ledger.append_next` stamp the next sequence number.  On
resume the campaign runner truncates its ledger back to the restart step
with an atomic rewrite, so a finished campaign's journal is *identical* —
line for line — to the journal of a run that never crashed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.io.atomic import atomic_write_bytes

__all__ = ["LedgerError", "Ledger", "sum_counters"]


class LedgerError(RuntimeError):
    """The ledger is damaged beyond the crash-consistency contract."""


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class Ledger:
    """A durable JSON-lines journal keyed by an integer ``step`` field."""

    def __init__(self, path: str | Path, durable: bool = True) -> None:
        self.path = Path(path)
        self.durable = durable
        self._count: int | None = None  # complete records on disk, once read
        self._clean: str | None = None  # the text cut to them, if the tail is torn

    def append(self, record: dict) -> None:
        """Durably append one record (must carry an integer ``step``).

        A torn tail left by a crash is cut first (atomically), so the new
        line never glues onto half of an old one.
        """
        if "step" not in record:
            raise ValueError("ledger records must carry a 'step' field")
        if self._count is None:
            self.records()
        if self._clean is not None:
            atomic_write_bytes(self.path, self._clean.encode("utf-8"), durable=self.durable)
            self._clean = None
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_line(record))
            if self.durable:
                fh.flush()
                os.fsync(fh.fileno())
        self._count += 1

    def append_next(self, record: dict) -> dict:
        """Append ``record`` stamped with the next sequence number as ``step``
        (the count of complete records before it); returns the stamped record."""
        if self._count is None:
            self.records()
        record = {"step": self._count, **record}
        self.append(record)
        return record

    def records(self) -> list[dict]:
        """All complete records, tolerating one torn trailing line.

        A crash can only tear the *last* line (appends are sequential);
        unparseable interior lines mean external damage and raise
        :class:`LedgerError` rather than silently dropping history.
        """
        text = self.path.read_text(encoding="utf-8") if self.path.exists() else ""
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        out: list[dict] = []
        for i, line in enumerate(lines):
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                if i < len(lines) - 1:
                    raise LedgerError(
                        f"{self.path}: unparseable interior line {i + 1}: {e}"
                    ) from e
                # torn tail from a crash mid-append — expected
        self._clean = None
        if len(out) < len(lines) or (text and not text.endswith("\n")):
            self._clean = "".join(line + "\n" for line in lines[: len(out)])
        self._count = len(out)
        return out

    def last_step(self) -> int | None:
        records = self.records()
        return int(records[-1]["step"]) if records else None

    def truncate_to(self, step: int) -> int:
        """Atomically drop every record with ``record['step'] >= step``.

        Returns the number of records dropped.  Used on resume: work after
        the restart checkpoint will be re-executed and re-journaled, so its
        old records must go for the ledger to match an uninterrupted run.
        The rewrite also clears any torn trailing line left by the crash.
        """
        records = self.records()
        kept = [r for r in records if int(r["step"]) < step]
        data = "".join(_line(r) for r in kept)
        atomic_write_bytes(self.path, data.encode("utf-8"), durable=self.durable)
        self._count, self._clean = len(kept), None
        return len(records) - len(kept)


def sum_counters(records: list[dict]) -> dict[str, float]:
    """Fold the per-trajectory counter deltas of ``metrics.jsonl`` records."""
    totals: dict[str, float] = {}
    for row in records:
        for name, delta in row.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + delta
    return totals
