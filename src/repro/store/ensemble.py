"""Content-addressed gauge-configuration store with a journaled index.

Layout of a store root::

    <root>/store.json              schema stamp
    <root>/index.jsonl             append-only Ledger of put/remove records
    <root>/objects/<k[:2]>/<k>.npz configs (save_gauge format)

Objects are written through :func:`repro.io.save_gauge` — the one
self-verifying :mod:`repro.io.container` format, atomic and CRC-checked on
every read — named by their :func:`~repro.store.keys.config_key`, a
canonical hash of (action, couplings, volume, trajectory, RNG lineage).
The index is a :class:`~repro.campaign.ledger.Ledger` that stamps each
record's ``step``, so a crash mid-ingest leaves at most one torn trailing
line (cut before the next append) and never a dangling half-object under
a final name.  Replaying the journal rebuilds the live entry map: ``put``
records add, ``remove`` records tombstone, last writer wins.

Because the address is the *provenance* hash, a re-run of the same
deterministic generation chain re-derives the same key — the store
deduplicates the put (CRC-verified, so a key collision with different
bytes is an error, not a silent overwrite).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign.ledger import Ledger
from repro.io.atomic import atomic_write_bytes
from repro.io.config_io import CorruptConfigError, load_gauge, save_gauge
from repro.store.keys import config_key
from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE

__all__ = ["StoreError", "StoreKeyCollision", "EnsembleStore"]

STORE_SCHEMA = "repro-ensemble-store/1"


class StoreError(RuntimeError):
    """The store is missing, malformed, or refused an operation."""


class StoreKeyCollision(StoreError):
    """A put presented different bytes under an already-stored key.

    Keys hash *provenance*, and the generation chain is deterministic, so
    equal keys must mean equal bytes; anything else is corruption or a key
    schema that omitted a parameter that mattered.
    """


def _count(name: str, n: int = 1) -> None:
    if STATE.counting:
        get_registry().add(name, n)


class EnsembleStore:
    """A content-addressed store of gauge configurations."""

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        self._stamp = self.root / "store.json"
        self.objects_dir = self.root / "objects"
        if self._stamp.exists():
            schema = json.loads(self._stamp.read_text(encoding="utf-8")).get("schema")
            if schema != STORE_SCHEMA:
                raise StoreError(f"{self.root}: schema {schema!r} is not {STORE_SCHEMA!r}")
        elif create:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self._stamp,
                (json.dumps({"schema": STORE_SCHEMA}) + "\n").encode("utf-8"),
            )
        else:
            raise StoreError(f"{self.root} is not an ensemble store (no store.json)")
        self.index = Ledger(self.root / "index.jsonl")
        self._entries: dict[str, dict] | None = None

    @classmethod
    def is_store(cls, path: str | Path) -> bool:
        """Whether ``path`` looks like a store root (used by the CLIs)."""
        return (Path(path) / "store.json").exists()

    # -- index replay ----------------------------------------------------------

    def _replay(self) -> dict[str, dict]:
        if self._entries is None:
            entries: dict[str, dict] = {}
            for rec in self.index.records():
                kind = rec.get("kind")
                if kind == "put":
                    entries[rec["key"]] = rec
                elif kind == "remove":
                    entries.pop(rec["key"], None)
            self._entries = entries
        return self._entries

    def entries(self) -> dict[str, dict]:
        """Live index entries, key -> put record (replayed, tombstones applied)."""
        return dict(self._replay())

    def keys(self) -> list[str]:
        """Live keys in ingest order."""
        return list(self._replay())

    def __len__(self) -> int:
        return len(self._replay())

    def __contains__(self, key: str) -> bool:
        return key in self._replay()

    def __iter__(self):
        """Iterate ``(key, entry)`` in ingest order."""
        return iter(self._replay().items())

    def query(self, **filters) -> list[dict]:
        """Entries whose provenance matches every ``field=value`` filter."""
        out = []
        for entry in self._replay().values():
            prov = entry.get("provenance", {})
            if all(prov.get(k) == v for k, v in filters.items()):
                out.append(entry)
        return out

    # -- object paths ----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.npz"

    # -- put / get -------------------------------------------------------------

    def put(self, gauge, provenance: dict, **extra_meta) -> str:
        """Store one configuration under its provenance-derived key.

        ``provenance`` must carry ``action``, ``couplings`` (dict),
        ``trajectory`` (int) and ``rng`` (dict); the lattice shape comes
        from the field itself.  Returns the key.  A repeated put of the
        same provenance is a CRC-verified dedup no-op.
        """
        for field in ("action", "couplings", "trajectory", "rng"):
            if field not in provenance:
                raise StoreError(f"provenance is missing {field!r}")
        key = config_key(
            gauge.lattice.shape,
            provenance["action"],
            provenance["couplings"],
            provenance["trajectory"],
            provenance["rng"],
        )
        path = self.path_for(key)
        entries = self._replay()
        if key in entries:
            try:
                stored, _ = load_gauge(path)
            except (FileNotFoundError, CorruptConfigError) as e:
                raise StoreError(
                    f"index lists {key[:12]}... but its object is bad: {e}"
                ) from e
            if stored.u.tobytes() != gauge.u.tobytes():
                raise StoreKeyCollision(
                    f"key {key[:12]}... already stored with different bytes"
                )
            _count("store/dedup")
            return key
        path.parent.mkdir(parents=True, exist_ok=True)
        save_gauge(path, gauge, key=key, provenance=provenance, **extra_meta)
        record = self.index.append_next(
            {
                "kind": "put",
                "key": key,
                "shape": list(gauge.lattice.shape),
                "provenance": dict(provenance),
                **extra_meta,
            }
        )
        entries[key] = record
        _count("store/puts")
        return key

    def get(self, key: str, guard=None):
        """Load a stored configuration; returns ``(GaugeField, meta)``.

        Goes through :func:`repro.io.load_gauge`, so the CRC stamp (and,
        with ``guard``, the physics rings) is verified on every read.
        """
        if key not in self._replay():
            raise KeyError(f"{key!r} is not in the store index")
        gauge, meta = load_gauge(self.path_for(key), guard=guard)
        _count("store/gets")
        return gauge, meta

    def remove(self, key: str) -> None:
        """Tombstone ``key`` in the index and delete its object file."""
        if key not in self._replay():
            raise KeyError(f"{key!r} is not in the store index")
        self.index.append_next({"kind": "remove", "key": key})
        self._replay().pop(key, None)
        path = self.path_for(key)
        if path.exists():
            path.unlink()

    # -- ingest ----------------------------------------------------------------

    def ingest_directory(
        self, directory: str | Path, action: str = "wilson", **extra_provenance
    ) -> list[str]:
        """Ingest every ``cfg_*.npz`` of a loose ensemble directory.

        Provenance is reconstructed from each file's metadata header (the
        ``beta``/``index``/``seed`` stamps :mod:`repro.tools.generate_ensemble`
        writes); ``extra_provenance`` overrides/extends it.  Returns the
        keys in file order.
        """
        directory = Path(directory)
        paths = sorted(directory.glob("cfg_*.npz"))
        if not paths:
            raise FileNotFoundError(f"no cfg_*.npz files in {directory}")
        keys = []
        for path in paths:
            gauge, meta = load_gauge(path)
            rng = {"seed": meta.get("seed"), "algorithm": "heatbath+or"}
            # generate_ensemble stamps its full lineage; fold in whatever is
            # present so ingest and direct --store puts derive the same key.
            for knob in ("therm", "separation", "n_or"):
                if knob in meta:
                    rng[knob] = meta[knob]
            provenance = {
                "action": action,
                "couplings": {"beta": meta.get("beta")},
                "trajectory": int(meta.get("index", 0)),
                "rng": rng,
                "source": directory.name,
                **extra_provenance,
            }
            extra = {}
            if "plaquette" in meta:
                extra["plaquette"] = meta["plaquette"]
            keys.append(self.put(gauge, provenance, **extra))
            _count("store/ingested")
        return keys

    def ingest_campaign(self, campaign_dir: str | Path) -> list[str]:
        """Ingest the checkpointed gauge states of an HMC campaign directory.

        Reads ``campaign.json`` for the physics provenance (the same
        fields a resume would refuse to change) and every surviving
        checkpoint for the states; the checkpoint step is the trajectory
        number.  Returns the keys in step order.
        """
        from repro.campaign.checkpoint import CheckpointStore
        from repro.campaign.runner import CampaignConfig
        from repro.fields import GaugeField
        from repro.lattice import Lattice4D

        campaign_dir = Path(campaign_dir)
        config_path = campaign_dir / "campaign.json"
        if not config_path.exists():
            raise FileNotFoundError(f"no campaign.json in {campaign_dir}")
        cfg = CampaignConfig.from_dict(json.loads(config_path.read_text()))
        ckpts = CheckpointStore(campaign_dir / "checkpoints", keep=cfg.keep_checkpoints)
        steps = ckpts.steps()
        if not steps:
            raise FileNotFoundError(f"no checkpoints in {campaign_dir}")
        lattice = Lattice4D(cfg.shape)
        keys = []
        for step in steps:
            arrays, meta = ckpts.load(step)
            gauge = GaugeField(lattice, arrays["u"])
            provenance = {
                "action": "wilson-hmc",
                "couplings": {"beta": cfg.beta},
                "trajectory": int(step),
                "rng": {
                    "seed": cfg.seed,
                    "algorithm": f"hmc-{cfg.integrator}",
                    "step_size": cfg.step_size,
                    "n_steps": cfg.n_steps,
                    "start": cfg.start,
                },
                "source": campaign_dir.name,
            }
            extra = {}
            if "plaquette" in meta:
                extra["plaquette"] = meta["plaquette"]
            keys.append(self.put(gauge, provenance, **extra))
            _count("store/ingested")
        return keys

    # -- maintenance -----------------------------------------------------------

    def audit(self, unitarity_tol: float = 1e-6, plaquette_tol: float = 1e-9):
        """Validate every live object; yields ``(key, rc, message)``.

        Same rc convention as ``repro.tools.check_config``: 0 clean,
        1 physics violation, 2 unreadable/CRC/missing.  Index entries
        whose object file vanished are rc 2.
        """
        from repro.tools.check_config import check_file

        for key in self._replay():
            path = self.path_for(key)
            if not path.exists():
                yield key, 2, "object file missing"
                continue
            rc, message = check_file(
                path, unitarity_tol=unitarity_tol, plaquette_tol=plaquette_tol
            )
            yield key, rc, message

    def gc(self) -> list[Path]:
        """Delete object files no live index entry references; returns them.

        Strays appear when a ``remove`` tombstone landed but the unlink was
        interrupted, or when an ingest crashed between object write and
        journal append (the journal-last ordering makes the object the
        orphan, never the index entry).
        """
        live = {self.path_for(key) for key in self._replay()}
        removed = []
        for path in sorted(self.objects_dir.glob("*/*.npz")):
            if path not in live:
                path.unlink()
                removed.append(path)
        return removed
