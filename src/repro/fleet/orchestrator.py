"""Fault-tolerant multi-campaign orchestrator: the fleet layer.

:class:`Fleet` runs a deterministic design-point sweep of
:class:`~repro.campaign.runner.HMCCampaign` workers concurrently (one OS
process per running point, at most ``max_workers`` at a time) and keeps
the sweep going when workers die.  Supervision state machine, per point::

    pending ──spawn──▶ running ──exit 0 + complete──▶ done
                      │ │
       stale liveness │ │ nonzero exit / exit-incomplete
                      ▼ ▼
                suspect ─▶ reaped (SIGKILL) ─▶ backoff ─▶ running (resume)
                                  │
                                  │ attempts > retry.max_retries
                                  ▼
                             quarantined

* **Liveness** piggybacks on the files a healthy worker cannot help
  touching — ``heartbeat.json`` (written per trajectory), the campaign
  ``ledger.jsonl``/``metrics.jsonl``, checkpoint files — so a worker is
  *suspect* only when every channel has been silent for
  ``heartbeat_timeout`` seconds (the hard per-trajectory timeout: a
  heartbeat advances once per trajectory).  Suspect workers are
  SIGKILL-reaped; their point resumes bit-identically from its last
  checkpoint on the next attempt (the campaign exact-resume contract).
* **Retry** uses the shared :class:`~repro.campaign.runner.RetryPolicy`:
  deterministic exponential backoff with seeded jitter keyed by the point
  index (replayable, no restart stampede), a bounded attempt budget, and
  an optional per-point wall-clock deadline.
* **Quarantine**: a point that exhausts its budget is journaled with its
  accumulated fault evidence (exit codes, liveness ages, last heartbeat,
  worker-log tails) and the sweep *continues* — graceful degradation, the
  fleet completes with an explicit ``quarantine.json`` manifest instead
  of sinking on one poisoned point.
* **Crash consistency**: the fleet journals its own state entry-last over
  the campaign :class:`~repro.campaign.ledger.Ledger` (``fleet.jsonl``).
  Side effects of a point finish — ingest into the
  :class:`~repro.store.EnsembleStore`, plaquette rows into the
  :class:`~repro.store.MeasurementCache` — happen *before* the ``finish``
  record and are idempotent (content-addressed dedup), so a SIGKILLed
  orchestrator resumes the whole sweep re-running zero completed points:
  journaled finishes are skipped outright, completed-but-unjournaled
  points are recognised from their campaign ledgers and committed without
  a respawn, and orphaned workers from the dead orchestrator are
  verified-and-reaped by pid before their point is rescheduled.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.ledger import Ledger, sum_counters
from repro.campaign.runner import RetryPolicy
from repro.fleet.design import DesignPoint
from repro.fleet.plan import FleetFaultPlan
from repro.fleet.worker import HEARTBEAT_FILE, read_heartbeat
from repro.io.atomic import atomic_write_bytes
from repro.telemetry.registry import get_registry
from repro.telemetry.state import STATE

__all__ = ["Fleet", "FleetError", "FleetSummary", "QUARANTINE_FILE"]

FLEET_SCHEMA = "repro-fleet/1"
METRICS_SCHEMA = "repro-fleet-metrics/1"
QUARANTINE_FILE = "quarantine.json"

#: Worker-log lines preserved as quarantine evidence per reap.
_LOG_TAIL_LINES = 20

#: Journal record kind -> its event counter in ``fleet_metrics.json``.
_EVENTS = {"spawn": "spawns", "reap": "reaps", "finish": "finishes", "quarantine": "quarantines"}


class FleetError(RuntimeError):
    """The fleet directory is malformed or the sweep definition conflicts."""


def _count(name: str, n: int = 1) -> None:
    if STATE.counting:
        get_registry().add(name, n)


@dataclass
class FleetSummary:
    """Outcome of one (possibly resumed) fleet run."""

    n_points: int
    completed: int
    quarantined: list[int]
    spawns: int
    reaps: int
    skipped_done: int
    recovered: int
    wall_time: float


@dataclass
class _Running:
    """One live worker attempt under supervision."""

    point: DesignPoint
    attempt: int
    proc: subprocess.Popen
    log_path: Path
    log_file: object
    spawned_wall: float
    started_mono: float


@dataclass
class _PointState:
    """Supervision bookkeeping for one design point (within this run)."""

    attempts: int = 0
    not_before: float = 0.0  # monotonic clock; backoff gate
    supervised_since: float | None = None
    evidence: list = field(default_factory=list)


class Fleet:
    """A journaled, crash-consistent sweep of supervised campaign workers.

    Parameters
    ----------
    directory:
        The fleet root.  ``fleet.json`` freezes the design (a resume with a
        different design is refused), ``fleet.jsonl`` is the state journal,
        ``points/point_NNNN/`` hold the per-point campaign directories.
    points:
        The design to run; ``None`` resumes the stored design.
    max_workers:
        Concurrent worker processes (the pool width).
    heartbeat_timeout:
        Seconds of liveness silence before a worker is reaped.  A healthy
        worker heartbeats every trajectory, so this doubles as the hard
        per-trajectory timeout.
    retry:
        Shared :class:`~repro.campaign.runner.RetryPolicy`.  ``max_retries``
        bounds respawns per point; ``jitter``/``jitter_seed`` make backoff
        deterministic per point; ``deadline`` caps a point's total
        supervised wall-clock before quarantine.
    store:
        Optional :class:`~repro.store.EnsembleStore` (or a root path) into
        which finished points' checkpoints are ingested; when given, a
        :class:`~repro.store.MeasurementCache` under ``<directory>/cache``
        memoises per-config plaquette rows so points (and re-runs) share
        results.
    startup_grace:
        Liveness allowance for a worker that has not yet shown *any* sign
        of life since its spawn (interpreter + import cost).  Effective
        allowance is ``max(heartbeat_timeout, startup_grace)`` until the
        first heartbeat/ledger/checkpoint touch, ``heartbeat_timeout``
        after.  Lets tests and latency-sensitive fleets run tight
        per-trajectory timeouts without reaping workers mid-import.
    """

    def __init__(
        self,
        directory: str | Path,
        points: list[DesignPoint] | None = None,
        *,
        max_workers: int = 2,
        heartbeat_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        store=None,
        poll_interval: float = 0.05,
        startup_grace: float = 30.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.directory / "fleet.json"
        stored = None
        if self._manifest_path.exists():
            manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
            if manifest.get("schema") != FLEET_SCHEMA:
                raise FleetError(
                    f"{self.directory}: schema {manifest.get('schema')!r} "
                    f"is not {FLEET_SCHEMA!r}"
                )
            stored = [DesignPoint.from_dict(d) for d in manifest["points"]]
        if points is None:
            if stored is None:
                raise FleetError(
                    f"no fleet.json in {self.directory} and no design given"
                )
            points = stored
        elif stored is not None and [p.to_dict() for p in points] != [
            p.to_dict() for p in stored
        ]:
            raise FleetError(
                "cannot resume: the given design differs from the stored sweep"
            )
        self.points = list(points)
        atomic_write_bytes(
            self._manifest_path,
            (
                json.dumps(
                    {
                        "schema": FLEET_SCHEMA,
                        "points": [p.to_dict() for p in self.points],
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8"),
        )
        self.max_workers = int(max_workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.startup_grace = float(startup_grace)
        self.retry = retry if retry is not None else RetryPolicy()
        self.poll_interval = float(poll_interval)
        self.journal = Ledger(self.directory / "fleet.jsonl")
        if store is not None and not hasattr(store, "ingest_campaign"):
            from repro.store import EnsembleStore

            store = EnsembleStore(store)
        self.store = store
        self.cache = None
        if store is not None:
            from repro.store import MeasurementCache

            self.cache = MeasurementCache(self.directory / "cache")

    # -- layout ----------------------------------------------------------------

    def point_dir(self, point: DesignPoint) -> Path:
        return self.directory / "points" / point.name

    def _point_by_index(self, index: int) -> DesignPoint:
        return self.points[index]

    # -- journal ---------------------------------------------------------------

    def replay(self) -> dict:
        """Fold ``fleet.jsonl`` into per-point state (crash-tolerant).

        Returns ``{"attempts", "done", "quarantined", "inflight",
        "evidence"}`` keyed by point index, plus the journal's ``"events"``
        counts by kind.  A ``spawn`` not followed by a
        ``reap``/``finish`` for its point is *in flight*: the orchestrator
        died while that worker ran, and the worker may still be alive.
        """
        attempts: dict[int, int] = {}
        done: dict[int, dict] = {}
        quarantined: dict[int, dict] = {}
        inflight: dict[int, dict] = {}
        evidence: dict[int, list] = {}
        events = dict.fromkeys(_EVENTS.values(), 0)
        for rec in self.journal.records():
            kind = rec.get("kind")
            i = rec.get("point")
            if kind in _EVENTS:
                events[_EVENTS[kind]] += 1
            if kind == "spawn":
                attempts[i] = attempts.get(i, 0) + 1
                inflight[i] = rec
            elif kind == "reap":
                inflight.pop(i, None)
                evidence.setdefault(i, []).append(rec)
            elif kind == "finish":
                inflight.pop(i, None)
                done[i] = rec
            elif kind == "quarantine":
                inflight.pop(i, None)
                quarantined[i] = rec
        return {
            "attempts": attempts,
            "done": done,
            "quarantined": quarantined,
            "inflight": inflight,
            "evidence": evidence,
            "events": events,
        }

    # -- completion / validation ----------------------------------------------

    def point_complete(self, point: DesignPoint) -> bool:
        """Whether a point's campaign reached its target trajectory count
        with a valid final checkpoint (the durable truth, not the journal)."""
        pdir = self.point_dir(point)
        ledger = Ledger(pdir / "ledger.jsonl")
        n = point.config.n_trajectories
        records = [r for r in ledger.records() if r.get("kind") == "trajectory"]
        if len(records) < n:
            return False
        ckpts = CheckpointStore(
            pdir / "checkpoints", keep=point.config.keep_checkpoints
        )
        latest = ckpts.latest()
        return latest is not None and latest[0] == n

    # -- worker lifecycle ------------------------------------------------------

    def _worker_env(self) -> dict:
        import repro

        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        # Workers journal per-trajectory counter deltas (metrics.jsonl) when
        # telemetry is on, which the fleet aggregates at the end of the run.
        if STATE.counting:
            env.setdefault("REPRO_TELEMETRY", "counters")
        return env

    def _spawn(
        self, point: DesignPoint, attempt: int, fault: FleetFaultPlan | None
    ) -> _Running:
        pdir = self.point_dir(point)
        pdir.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable,
            "-m",
            "repro.fleet.worker",
            "--dir",
            str(pdir),
            "--config",
            json.dumps(point.config.to_dict(), sort_keys=True),
        ]
        if fault is not None:
            cmd += fault.worker_args(point.index, attempt)
        log_path = pdir / f"worker_{attempt:02d}.log"
        log_file = open(log_path, "ab")
        proc = subprocess.Popen(
            cmd, stdout=log_file, stderr=subprocess.STDOUT, env=self._worker_env()
        )
        spawn = {"kind": "spawn", "point": point.index, "attempt": attempt, "pid": proc.pid}
        self.journal.append_next({"wall": time.time(), **spawn})
        _count("fleet/spawns")
        return _Running(
            point=point,
            attempt=attempt,
            proc=proc,
            log_path=log_path,
            log_file=log_file,
            spawned_wall=time.time(),
            started_mono=time.monotonic(),
        )

    def _liveness(self, run: _Running) -> tuple[float, bool]:
        """``(age, alive_once)``: seconds since the worker last showed life
        on *any* channel, and whether it ever did since this spawn.  A
        worker that has never heartbeated is still *starting* (interpreter
        + imports), so it gets ``startup_grace`` rather than the (possibly
        much tighter) per-trajectory ``heartbeat_timeout``."""
        pdir = self.point_dir(run.point)
        freshest = run.spawned_wall
        alive_once = False
        candidates = [
            pdir / HEARTBEAT_FILE,
            pdir / "ledger.jsonl",
            pdir / "metrics.jsonl",
        ]
        ckpt_dir = pdir / "checkpoints"
        if ckpt_dir.is_dir():
            candidates.extend(ckpt_dir.glob("ckpt_*.rpckpt"))
        for path in candidates:
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if mtime > run.spawned_wall:
                alive_once = True
            freshest = max(freshest, mtime)
        return time.time() - freshest, alive_once

    def _liveness_age(self, run: _Running) -> float:
        return self._liveness(run)[0]

    def _log_tail(self, path: Path) -> list[str]:
        try:
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        except OSError:
            return []
        return lines[-_LOG_TAIL_LINES:]

    def _reap(self, run: _Running, reason: str, exit_code=None) -> dict:
        """SIGKILL (if needed) and journal one failed attempt's evidence."""
        if run.proc.poll() is None:
            try:
                run.proc.kill()
            except OSError:
                pass
            try:
                run.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        run.log_file.close()
        record = self.journal.append_next(
            {
                "wall": time.time(),
                "kind": "reap",
                "point": run.point.index,
                "attempt": run.attempt,
                "reason": reason,
                "exit_code": exit_code if exit_code is not None else run.proc.returncode,
                "liveness_age_s": round(self._liveness_age(run), 3),
                "heartbeat": read_heartbeat(self.point_dir(run.point)),
                "log_tail": self._log_tail(run.log_path),
            }
        )
        _count("fleet/reaps")
        return record

    def _reap_orphan(self, point: DesignPoint, spawn_record: dict) -> None:
        """Kill a worker the *previous* orchestrator left behind, if it is
        verifiably ours (pid alive and its cmdline names our point dir)."""
        pid = spawn_record.get("pid")
        killed = False
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
        except (OSError, TypeError):
            cmdline = None  # already gone (or pid was never recorded)
        if cmdline is not None:
            args = [a.decode("utf-8", "replace") for a in cmdline if a]
            if "repro.fleet.worker" in " ".join(args) and str(
                self.point_dir(point)
            ) in args:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
                except OSError:
                    pass
        # Journal the reap even when the pid is long gone: the dangling
        # ``spawn`` must be closed for replay/status to stop seeing the
        # point as in flight.
        self.journal.append_next(
            {
                "wall": time.time(),
                "kind": "reap",
                "point": point.index,
                "attempt": spawn_record.get("attempt", 0),
                "reason": "orphaned",
                "exit_code": None,
                "orphan_killed": killed,
                "heartbeat": read_heartbeat(self.point_dir(point)),
                "log_tail": [],
            }
        )
        _count("fleet/reaps")

    # -- finish processing -----------------------------------------------------

    def _compute_plaquette(self, key: str) -> dict:
        from repro.loops import average_plaquette

        gauge, _meta = self.store.get(key)
        return {"plaquette": float(average_plaquette(gauge.u))}

    def _process_finish(self, point: DesignPoint, recovered: bool = False) -> dict:
        """Commit one completed point: store/cache side effects first (all
        idempotent), the journal ``finish`` record last."""
        pdir = self.point_dir(point)
        config_keys: list[str] = []
        if self.store is not None:
            config_keys = self.store.ingest_campaign(pdir)
            if self.cache is not None:
                from repro.store import MeasurementRequest

                entries = self.store.entries()
                for key in config_keys:
                    provenance = entries[key].get("provenance", {})
                    request = MeasurementRequest(
                        config_key=key,
                        observable="plaquette",
                        tags={
                            "source": pdir.name,
                            "trajectory": provenance.get("trajectory", -1),
                        },
                    )
                    self.cache.get_or_compute(
                        request, lambda k=key: self._compute_plaquette(k)
                    )
        trajectories = [
            r
            for r in Ledger(pdir / "ledger.jsonl").records()
            if r.get("kind") == "trajectory"
        ]
        record = self.journal.append_next(
            {
                "wall": time.time(),
                "kind": "finish",
                "point": point.index,
                "trajectories": len(trajectories),
                "plaquette": trajectories[-1]["plaquette"] if trajectories else None,
                "config_keys": config_keys,
                "recovered": recovered,
            }
        )
        _count("fleet/finishes")
        return record

    def _quarantine(self, point: DesignPoint, state: _PointState, reason: str) -> dict:
        record = self.journal.append_next(
            {
                "wall": time.time(),
                "kind": "quarantine",
                "point": point.index,
                "reason": reason,
                "attempts": state.attempts,
                "evidence": state.evidence,
            }
        )
        _count("fleet/quarantined")
        return record

    # -- the supervision loop --------------------------------------------------

    def run(
        self, fault: FleetFaultPlan | None = None, progress=None
    ) -> FleetSummary:
        """Run (or resume) the sweep until every point is done or quarantined.

        ``progress`` is called with ``(event, point_index, record)`` for
        ``spawn``/``reap``/``finish``/``quarantine`` transitions.
        """
        t0 = time.monotonic()
        replayed = self.replay()
        done = dict(replayed["done"])
        quarantined = dict(replayed["quarantined"])
        skipped_done = len(done) + len(quarantined)
        states: dict[int, _PointState] = {}
        for i, n in replayed["attempts"].items():
            states[i] = _PointState(attempts=n)
        for i, ev in replayed["evidence"].items():
            states.setdefault(i, _PointState()).evidence = list(ev)

        # Workers orphaned by a SIGKILLed orchestrator: verify-and-reap, then
        # let completion validation decide whether their point needs a respawn.
        for i, spawn_rec in replayed["inflight"].items():
            self._reap_orphan(self._point_by_index(i), spawn_rec)

        def notify(event: str, index: int, record: dict) -> None:
            if progress is not None:
                progress(event, index, record)

        queue = [
            p for p in self.points if p.index not in done and p.index not in quarantined
        ]
        running: dict[int, _Running] = {}
        spawns = reaps = recovered = 0

        def finish(point: DesignPoint, was_recovered: bool) -> None:
            nonlocal recovered
            record = self._process_finish(point, recovered=was_recovered)
            done[point.index] = record
            if was_recovered:
                recovered += 1
                _count("fleet/points_recovered")
            notify("finish", point.index, record)
            if fault is not None:
                fault.fire_on_finish(len(done))

        def retry_or_quarantine(point: DesignPoint, reap_record: dict) -> None:
            state = states[point.index]
            state.evidence.append(reap_record)
            now = time.monotonic()
            if state.attempts > self.retry.max_retries:
                record = self._quarantine(point, state, reason="max-retries")
                quarantined[point.index] = record
                notify("quarantine", point.index, record)
                return
            if (
                self.retry.deadline is not None
                and state.supervised_since is not None
                and now - state.supervised_since > self.retry.deadline
            ):
                record = self._quarantine(point, state, reason="deadline")
                quarantined[point.index] = record
                notify("quarantine", point.index, record)
                return
            # attempts is the count of spawns so far; the next retry is
            # attempt index (attempts - 1) on the 0-based backoff ramp.
            delay = self.retry.delay(state.attempts - 1, key=point.index)
            state.not_before = now + delay
            _count("fleet/retries")
            queue.append(point)

        while queue or running:
            # -- schedule ------------------------------------------------------
            now = time.monotonic()
            eligible = [p for p in queue if states.get(p.index, _PointState()).not_before <= now]
            for point in sorted(eligible, key=lambda p: p.index):
                if len(running) >= self.max_workers:
                    break
                queue.remove(point)
                # A completed campaign needs no worker: commit it directly
                # (covers both a crash after the worker finished and a crash
                # between side effects and the finish record — all idempotent).
                if self.point_complete(point):
                    finish(point, was_recovered=True)
                    continue
                state = states.setdefault(point.index, _PointState())
                if state.supervised_since is None:
                    state.supervised_since = now
                run_handle = self._spawn(point, state.attempts, fault)
                state.attempts += 1
                spawns += 1
                running[point.index] = run_handle
                notify(
                    "spawn",
                    point.index,
                    {"attempt": run_handle.attempt, "pid": run_handle.proc.pid},
                )

            # -- supervise -----------------------------------------------------
            for index in list(running):
                handle = running[index]
                rc = handle.proc.poll()
                if rc is not None:
                    del running[index]
                    handle.log_file.close()
                    if rc == 0 and self.point_complete(handle.point):
                        finish(handle.point, was_recovered=False)
                        continue
                    reason = "exit-incomplete" if rc == 0 else "exit"
                    record = self._reap(handle, reason=reason, exit_code=rc)
                    reaps += 1
                    notify("reap", index, record)
                    retry_or_quarantine(handle.point, record)
                    continue
                age, alive_once = self._liveness(handle)
                allowed = (
                    self.heartbeat_timeout
                    if alive_once
                    else max(self.heartbeat_timeout, self.startup_grace)
                )
                if age > allowed:
                    record = self._reap(handle, reason="hang")
                    del running[index]
                    reaps += 1
                    notify("reap", index, record)
                    retry_or_quarantine(handle.point, record)

            if queue or running:
                time.sleep(self.poll_interval)

        self.write_quarantine_manifest()
        self.aggregate_metrics()
        return FleetSummary(
            n_points=len(self.points),
            completed=len(done),
            quarantined=sorted(quarantined),
            spawns=spawns,
            reaps=reaps,
            skipped_done=skipped_done,
            recovered=recovered,
            wall_time=time.monotonic() - t0,
        )

    # -- degradation + telemetry artefacts -------------------------------------

    def write_quarantine_manifest(self) -> Path:
        """Regenerate ``quarantine.json`` from the journal (idempotent)."""
        replayed = self.replay()
        entries = []
        for i in sorted(replayed["quarantined"]):
            rec = replayed["quarantined"][i]
            point = self._point_by_index(i)
            entries.append(
                {
                    "point": i,
                    "name": point.name,
                    "config": point.config.to_dict(),
                    "reason": rec.get("reason"),
                    "attempts": rec.get("attempts"),
                    "evidence": rec.get("evidence", []),
                }
            )
        path = self.directory / QUARANTINE_FILE
        atomic_write_bytes(
            path,
            (
                json.dumps(
                    {"schema": "repro-fleet-quarantine/1", "points": entries},
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            ).encode("utf-8"),
        )
        return path

    def quarantined_points(self) -> list[dict]:
        """The quarantine manifest entries (from disk, else the journal)."""
        path = self.directory / QUARANTINE_FILE
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))["points"]
        self.write_quarantine_manifest()
        return json.loads(path.read_text(encoding="utf-8"))["points"]

    def aggregate_metrics(self) -> dict:
        """Fold every point's ``metrics.jsonl`` plus the fleet's own event
        counts into one snapshot (``fleet_metrics.json``)."""
        paths = {p.name: self.point_dir(p) / "metrics.jsonl" for p in self.points}
        per_point = {
            name: sum_counters(Ledger(path).records())
            for name, path in paths.items()
            if path.exists()
        }
        totals = sum_counters([{"counters": c} for c in per_point.values()])
        replayed = self.replay()
        snapshot = {
            "schema": METRICS_SCHEMA,
            "fleet": replayed["events"],
            "points_done": sorted(replayed["done"]),
            "points_quarantined": sorted(replayed["quarantined"]),
            "totals": totals,
            "per_point": per_point,
        }
        atomic_write_bytes(
            self.directory / "fleet_metrics.json",
            (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode("utf-8"),
            durable=False,
        )
        return snapshot

    # -- inspection ------------------------------------------------------------

    def status(self) -> list[dict]:
        """Per-point state rows for the CLI: index, name, state, progress."""
        replayed = self.replay()
        rows = []
        for point in self.points:
            i = point.index
            if i in replayed["done"]:
                state = "done"
            elif i in replayed["quarantined"]:
                state = "quarantined"
            elif i in replayed["inflight"]:
                state = "running"
            elif replayed["attempts"].get(i, 0) > 0:
                state = "retrying"
            else:
                state = "pending"
            ledger = Ledger(self.point_dir(point) / "ledger.jsonl")
            n_done = len(
                [r for r in ledger.records() if r.get("kind") == "trajectory"]
            )
            rows.append(
                {
                    "point": i,
                    "name": point.name,
                    "beta": point.config.beta,
                    "shape": point.config.shape,
                    "state": state,
                    "trajectories": n_done,
                    "target": point.config.n_trajectories,
                    "attempts": replayed["attempts"].get(i, 0),
                }
            )
        return rows
