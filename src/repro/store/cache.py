"""Memoised measurement serving: request key -> journaled result.

The cache sits in front of :mod:`repro.measure`: a request is keyed by
:func:`~repro.store.keys.request_key` over (configuration key, observable,
physics params, kernel/precision env), results land as one fsynced JSON
line in ``cache.jsonl`` — the same :class:`~repro.campaign.ledger.Ledger`
crash-consistency contract as the campaign journals — and repeats are
served from the replayed entry map without touching a gauge field or a
solver.  Values survive the JSON round trip bit-for-bit: Python renders
float64 by shortest round-trip ``repr``, so a cached number *is* the
computed number, not an approximation of it.

Invalidation
------------
A cache is only as trustworthy as its eviction story.  Entries are tagged
with the configuration key, the provenance trajectory, and a ``source``
tag (the campaign/ensemble an entry's config came from).  Three paths in:

* :meth:`MeasurementCache.invalidate_config` — a specific configuration
  went bad (e.g. ``load_gauge`` healed links on read: the bytes changed).
* :meth:`MeasurementCache.invalidate_where` — predicate eviction.
* :meth:`MeasurementCache.apply_fault_journal` — the campaign hook: read a
  campaign's ``faults.jsonl`` (written by the guard layer on every SDC
  incident, including the rollback heals) and evict every entry whose
  config came from that campaign at ``trajectory >= fault step`` — the
  trajectories the rollback re-executes.  A per-campaign cursor record
  makes the sweep incremental and idempotent across calls.

Evictions are journaled (``kind: "invalidate"``) so a replayed cache
reaches the same state as the live one, and counted as
``store/invalidations``; lookups count ``store/hits`` / ``store/misses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.ledger import Ledger
from repro.store.keys import request_key
from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE

__all__ = ["MeasurementRequest", "MeasurementCache"]


def _count(name: str, n: int = 1) -> None:
    if STATE.counting:
        get_registry().add(name, n)


@dataclass(frozen=True)
class MeasurementRequest:
    """One measurement request: what to compute, on what, under what knobs.

    ``env`` holds the bytes-relevant environment (kernel tier, working
    dtype); ``tags`` ride along for invalidation (trajectory, source
    campaign) but are deliberately *not* part of the key.
    """

    config_key: str
    observable: str
    params: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def key(self) -> str:
        return request_key(self.config_key, self.observable, self.params, self.env)


class MeasurementCache:
    """A journaled request-key -> result map with provenance-aware eviction."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = Ledger(self.root / "cache.jsonl")
        self._entries: dict[str, dict] | None = None
        self._cursors: dict[str, int] = {}

    # -- journal replay --------------------------------------------------------

    def _replay(self) -> dict[str, dict]:
        if self._entries is None:
            entries: dict[str, dict] = {}
            cursors: dict[str, int] = {}
            for rec in self.journal.records():
                kind = rec.get("kind")
                if kind == "result":
                    entries[rec["key"]] = rec
                elif kind == "invalidate":
                    for key in rec.get("keys", []):
                        entries.pop(key, None)
                elif kind == "fault_cursor":
                    cursors[rec["campaign"]] = rec["processed"]
            self._entries = entries
            self._cursors = cursors
        return self._entries

    def __len__(self) -> int:
        return len(self._replay())

    def entries(self) -> dict[str, dict]:
        """Live result records, request key -> record."""
        return dict(self._replay())

    # -- lookup / insert -------------------------------------------------------

    def lookup(self, request: MeasurementRequest):
        """The cached values for ``request``, or ``None`` (counted either way)."""
        entry = self._replay().get(request.key())
        if entry is None:
            _count("store/misses")
            return None
        _count("store/hits")
        return entry["values"]

    def put(self, request: MeasurementRequest, values: dict) -> str:
        """Journal one computed result; returns the request key."""
        key = request.key()
        entries = self._replay()
        record = self.journal.append_next(
            {
                "kind": "result",
                "key": key,
                "config_key": request.config_key,
                "observable": request.observable,
                "params": dict(request.params),
                "env": dict(request.env),
                "tags": dict(request.tags),
                "values": values,
            }
        )
        entries[key] = record
        return key

    def get_or_compute(self, request: MeasurementRequest, compute):
        """Serve from cache, or run ``compute()`` and journal its result.

        Returns ``(values, hit)`` — ``hit`` says whether the solve/contract
        work was skipped.
        """
        values = self.lookup(request)
        if values is not None:
            return values, True
        values = compute()
        self.put(request, values)
        return values, False

    # -- invalidation ----------------------------------------------------------

    def _evict(self, keys: list[str], reason: str) -> int:
        if not keys:
            return 0
        self.journal.append_next({"kind": "invalidate", "keys": keys, "reason": reason})
        entries = self._replay()
        for key in keys:
            entries.pop(key, None)
        _count("store/invalidations", len(keys))
        return len(keys)

    def invalidate_config(self, config_key: str, reason: str = "config") -> int:
        """Evict every entry computed on ``config_key``; returns the count."""
        keys = [
            k for k, e in self._replay().items() if e.get("config_key") == config_key
        ]
        return self._evict(keys, reason)

    def invalidate_where(self, predicate, reason: str = "predicate") -> int:
        """Evict entries whose record satisfies ``predicate(record)``."""
        keys = [k for k, e in self._replay().items() if predicate(e)]
        return self._evict(keys, reason)

    def apply_fault_journal(self, campaign_dir: str | Path) -> int:
        """Sweep a campaign's ``faults.jsonl`` and evict dependent entries.

        Every fault record is an SDC incident at a trajectory boundary; a
        ``rollback`` action means the campaign re-executed every trajectory
        from its last good checkpoint, so any cached measurement on a
        config of that campaign at ``trajectory >= incident step`` was
        computed on bytes that no longer exist.  Entries are matched by
        their ``source`` tag (the campaign directory name, as stamped by
        :meth:`~repro.store.ensemble.EnsembleStore.ingest_campaign`).
        Returns the number of entries evicted; incremental via a journaled
        per-campaign cursor.
        """
        campaign_dir = Path(campaign_dir)
        faults_path = campaign_dir / "faults.jsonl"
        if not faults_path.exists():
            return 0
        faults = Ledger(faults_path).records()
        self._replay()
        campaign = campaign_dir.name
        done = self._cursors.get(campaign, 0)
        new = faults[done:]
        if not new:
            return 0
        evicted = 0
        for fault in new:
            step = int(fault["step"])
            evicted += self.invalidate_where(
                lambda e, s=step: (
                    e.get("tags", {}).get("source") == campaign
                    and e.get("tags", {}).get("trajectory", -1) >= s
                ),
                reason=f"fault:{campaign}:{fault.get('kind', 'sdc')}@{step}",
            )
        self.journal.append_next(
            {"kind": "fault_cursor", "campaign": campaign, "processed": len(faults)}
        )
        self._cursors[campaign] = len(faults)
        return evicted
