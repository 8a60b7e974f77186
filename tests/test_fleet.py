"""Fleet layer: supervised sweeps that survive worker and orchestrator death.

The headline contracts under test: a design sweep with injected worker
SIGKILLs and a hung worker completes, with the killed points resuming
bit-identically from their checkpoints; an always-failing point is
quarantined with fault evidence instead of sinking the sweep; and a
SIGKILLed *orchestrator* resumes re-running zero completed design points.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import Ledger, RetryPolicy
from repro.fleet import (
    Fleet,
    FleetError,
    FleetFaultPlan,
    grid_design,
    latin_hypercube_design,
    point_seed,
    read_heartbeat,
)
from repro.fleet.design import DesignPoint
from repro.store import EnsembleStore
from repro.telemetry import full_reset, set_mode, telemetry_mode
from repro.telemetry.registry import get_registry

TINY = (2, 2, 2, 2)

#: Fast fault-drill policy: near-instant, deterministic backoff.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.02, jitter=0.25)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    set_mode("off")
    full_reset()
    yield
    set_mode("off")
    full_reset()


def tiny_design(betas=(5.5, 5.6), n_trajectories=4):
    return grid_design(
        TINY,
        list(betas),
        n_trajectories,
        n_steps=2,
        checkpoint_interval=2,
        seed=99,
    )


def point_ledger(fleet: Fleet, index: int) -> bytes:
    return (fleet.point_dir(fleet.points[index]) / "ledger.jsonl").read_bytes()


def finish_counts(fleet: Fleet) -> dict[int, int]:
    counts: dict[int, int] = {}
    for rec in fleet.journal.records():
        if rec.get("kind") == "finish":
            counts[rec["point"]] = counts.get(rec["point"], 0) + 1
    return counts


# -- design enumeration -------------------------------------------------------


class TestDesign:
    def test_grid_enumeration_deterministic(self):
        a = tiny_design()
        b = tiny_design()
        assert [p.to_dict() for p in a] == [p.to_dict() for p in b]
        assert [p.name for p in a] == ["point_0000", "point_0001"]
        assert [p.config.beta for p in a] == [5.5, 5.6]

    def test_point_seeds_distinct_and_stable(self):
        pts = tiny_design(betas=(5.5, 5.6, 5.7))
        seeds = [p.config.seed for p in pts]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [point_seed(99, i) for i in range(3)]

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError):
            grid_design(TINY, [], 4)

    def test_latin_hypercube_seeded_and_stratified(self):
        a = latin_hypercube_design(4, TINY, 4, beta_range=(5.0, 6.0), seed=7)
        b = latin_hypercube_design(4, TINY, 4, beta_range=(5.0, 6.0), seed=7)
        assert [p.to_dict() for p in a] == [p.to_dict() for p in b]
        betas = sorted(p.config.beta for p in a)
        # one sample per stratum: the k-th sorted beta lies in the k-th bin
        for k, beta in enumerate(betas):
            assert 5.0 + 0.25 * k <= beta <= 5.0 + 0.25 * (k + 1)
        c = latin_hypercube_design(4, TINY, 4, beta_range=(5.0, 6.0), seed=8)
        assert [p.config.beta for p in c] != [p.config.beta for p in a]

    def test_design_point_roundtrip(self):
        p = tiny_design()[1]
        assert DesignPoint.from_dict(p.to_dict()) == p


# -- the happy path + fleet artefacts -----------------------------------------


@pytest.fixture(scope="module")
def done_fleet(tmp_path_factory):
    """One completed 2-point sweep, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("fleet_done")
    fleet = Fleet(
        root / "fleet",
        tiny_design(),
        max_workers=2,
        retry=FAST_RETRY,
        store=root / "store",
    )
    summary = fleet.run()
    return fleet, summary


class TestHappyPath:
    def test_all_points_complete(self, done_fleet):
        fleet, summary = done_fleet
        assert summary.completed == summary.n_points == 2
        assert summary.quarantined == [] and summary.reaps == 0
        assert all(fleet.point_complete(p) for p in fleet.points)

    def test_store_and_cache_registered(self, done_fleet):
        fleet, _ = done_fleet
        # 4 trajectories, checkpoint every 2 -> 2 stored configs per point
        assert len(fleet.store) == 4
        finishes = [
            r for r in fleet.journal.records() if r.get("kind") == "finish"
        ]
        assert all(len(r["config_keys"]) == 2 for r in finishes)
        rows = fleet.cache.entries()
        assert len(rows) == 4

    def test_heartbeat_written_per_trajectory(self, done_fleet):
        fleet, _ = done_fleet
        hb = read_heartbeat(fleet.point_dir(fleet.points[0]))
        assert hb is not None
        assert hb["step"] == fleet.points[0].config.n_trajectories - 1
        assert hb["pid"] > 0

    def test_metrics_snapshot_aggregates_points(self, done_fleet):
        fleet, _ = done_fleet
        snap = json.loads((fleet.directory / "fleet_metrics.json").read_text())
        assert snap["fleet"]["finishes"] == 2
        assert snap["fleet"]["spawns"] == 2
        assert snap["points_done"] == [0, 1]

    def test_status_rows(self, done_fleet):
        fleet, _ = done_fleet
        rows = fleet.status()
        assert [r["state"] for r in rows] == ["done", "done"]
        assert all(r["trajectories"] == r["target"] == 4 for r in rows)

    def test_rerun_skips_everything(self, done_fleet):
        fleet, _ = done_fleet
        again = Fleet(fleet.directory, retry=FAST_RETRY)
        summary = again.run()
        assert summary.spawns == 0
        assert summary.skipped_done == 2
        assert finish_counts(again) == {0: 1, 1: 1}

    def test_design_is_frozen(self, done_fleet):
        fleet, _ = done_fleet
        with pytest.raises(FleetError):
            Fleet(fleet.directory, tiny_design(betas=(5.9, 6.1)))

    def test_torn_tail_journal_replays(self, done_fleet):
        fleet, _ = done_fleet
        journal = fleet.directory / "fleet.jsonl"
        before = fleet.replay()
        with open(journal, "ab") as fh:
            fh.write(b'{"step": 999, "kind": "spa')  # crash mid-append
        torn = Fleet(fleet.directory, retry=FAST_RETRY)
        assert torn.replay() == before
        summary = torn.run()  # and the sweep still resumes cleanly
        assert summary.spawns == 0 and summary.completed == 2


# -- fault drills -------------------------------------------------------------


class TestWorkerFaults:
    def test_sigkill_and_hang_resume_bit_identical(self, tmp_path):
        """The acceptance sweep: one worker SIGKILLed, one hung, both
        resume from checkpoint and match an unfaulted run bit-for-bit."""
        design = tiny_design(betas=(5.5, 5.6, 5.7))
        ref = Fleet(tmp_path / "ref", design, max_workers=3, retry=FAST_RETRY)
        ref.run()

        fault = (
            FleetFaultPlan()
            .kill_worker(0, at_trajectory=3)
            .hang_worker(1, at_trajectory=2, hang_seconds=120.0)
        )
        fleet = Fleet(
            tmp_path / "faulted",
            design,
            max_workers=3,
            heartbeat_timeout=2.0,
            retry=FAST_RETRY,
        )
        summary = fleet.run(fault=fault)
        assert summary.completed == 3 and summary.quarantined == []
        assert summary.reaps == 2 and summary.spawns == 5
        reasons = {
            r["point"]: r["reason"]
            for r in fleet.journal.records()
            if r.get("kind") == "reap"
        }
        assert reasons == {0: "exit", 1: "hang"}
        for i in range(3):
            assert point_ledger(fleet, i) == point_ledger(ref, i)

    def test_always_failing_point_quarantined_with_evidence(self, tmp_path):
        design = tiny_design(betas=(5.5, 5.6))
        fault = FleetFaultPlan().fail_worker(1, at_trajectory=1)
        fleet = Fleet(
            tmp_path / "fleet",
            design,
            max_workers=2,
            retry=RetryPolicy(max_retries=1, backoff_base=0.02, jitter=0.25),
        )
        summary = fleet.run(fault=fault)
        assert summary.completed == 1
        assert summary.quarantined == [1]
        # graceful degradation: the healthy point still finished
        assert fleet.point_complete(fleet.points[0])

        entries = fleet.quarantined_points()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["point"] == 1 and entry["name"] == "point_0001"
        assert entry["reason"] == "max-retries"
        assert entry["attempts"] == 2  # first try + one retry
        assert len(entry["evidence"]) == 2
        for ev in entry["evidence"]:
            assert ev["reason"] == "exit" and ev["exit_code"] == 1
            assert any("InjectedCrash" in line for line in ev["log_tail"])

        snap = json.loads((fleet.directory / "fleet_metrics.json").read_text())
        assert snap["fleet"]["quarantines"] == 1
        assert snap["points_quarantined"] == [1]

    def test_backoff_schedule_is_deterministic(self, tmp_path):
        retry = RetryPolicy(max_retries=3, backoff_base=0.05, jitter=0.5, jitter_seed=9)
        # the fleet keys jitter by point index: replayable across processes
        assert [retry.delay(a, key=1) for a in range(3)] == [
            retry.delay(a, key=1) for a in range(3)
        ]
        assert retry.delay(0, key=1) != retry.delay(0, key=2)


class TestOrchestratorCrash:
    def _orchestrate(self, directory, *extra):
        cmd = [
            sys.executable,
            "-m",
            "repro.tools.fleet",
            "run",
            "--dir",
            str(directory),
            "--shape",
            "2",
            "2",
            "2",
            "2",
            "--betas",
            "5.5",
            "5.6",
            "5.7",
            "--trajectories",
            "4",
            "--n-steps",
            "2",
            "--checkpoint-interval",
            "2",
            "--seed",
            "99",
            "--workers",
            "1",
            "--quiet",
            *extra,
        ]
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    def test_sigkilled_orchestrator_resumes_without_reruns(self, tmp_path):
        ref_dir = tmp_path / "ref"
        assert self._orchestrate(ref_dir).returncode == 0

        crash_dir = tmp_path / "crash"
        proc = self._orchestrate(crash_dir, "--crash-after-points", "1")
        assert proc.returncode == -9

        fleet = Fleet(crash_dir, retry=FAST_RETRY)  # design from fleet.json
        summary = fleet.run()
        assert summary.skipped_done >= 1  # journaled finishes not re-run
        assert summary.completed == 3
        # exactly one finish per point across crash + resume: zero re-runs
        assert finish_counts(fleet) == {0: 1, 1: 1, 2: 1}

        ref = Fleet(ref_dir)
        for i in range(3):
            assert point_ledger(fleet, i) == point_ledger(ref, i)

    def test_crash_between_side_effects_and_journal(self, tmp_path):
        """Worker finished and store ingested, but the orchestrator died
        before the ``finish`` record: the point is recovered without a
        respawn and the second ingest dedups instead of duplicating."""
        design = tiny_design()
        store_root = tmp_path / "store"
        fleet = Fleet(
            tmp_path / "fleet",
            design,
            max_workers=2,
            retry=FAST_RETRY,
            store=store_root,
        )
        fleet.run()
        n_stored = len(fleet.store)

        # drop the final ``finish`` record, as if SIGKILLed pre-journal
        records = fleet.journal.records()
        assert records[-1]["kind"] == "finish"
        fleet.journal.truncate_to(records[-1]["step"])

        resumed = Fleet(tmp_path / "fleet", retry=FAST_RETRY, store=store_root)
        with telemetry_mode("counters"):
            summary = resumed.run()
        assert summary.spawns == 0 and summary.recovered == 1
        assert summary.completed == 2
        counters = get_registry().counters()
        assert counters["store/dedup"] >= 1  # re-ingest found every config
        assert counters.get("store/puts", 0) == 0
        assert len(resumed.store) == n_stored

    def test_orphaned_worker_record_is_reaped_on_resume(self, tmp_path):
        """A ``spawn`` with no matching reap/finish (orchestrator died while
        the worker ran) is reaped-by-record on resume, then the point
        reruns from whatever the worker had checkpointed."""
        design = tiny_design(betas=(5.5,))
        fleet = Fleet(tmp_path / "fleet", design, max_workers=1, retry=FAST_RETRY)
        # hand-journal a spawn from a dead orchestrator (pid long gone)
        fleet.journal.append_next(
            {"kind": "spawn", "point": 0, "attempt": 0, "pid": 2**22 + 11}
        )
        resumed = Fleet(tmp_path / "fleet", retry=FAST_RETRY)
        assert 0 in resumed.replay()["inflight"]
        summary = resumed.run()
        assert summary.completed == 1
        reaps = [r for r in resumed.journal.records() if r.get("kind") == "reap"]
        assert [r["reason"] for r in reaps] == ["orphaned"]


# -- store dedup under concurrent completion ----------------------------------


class TestConcurrentDedup:
    def test_two_fleets_same_point_dedup_in_shared_store(self, tmp_path):
        """Two workers finishing the *same* design point (same config, same
        seed) into one shared store must dedup, not duplicate or collide."""
        design = tiny_design(betas=(5.5,))
        store = EnsembleStore(tmp_path / "store")
        a = Fleet(tmp_path / "a", design, max_workers=1, retry=FAST_RETRY, store=store)
        b = Fleet(tmp_path / "b", design, max_workers=1, retry=FAST_RETRY, store=store)
        a.run()
        n_after_first = len(store)
        with telemetry_mode("counters"):
            b.run()
        assert len(store) == n_after_first  # bit-identical configs collapsed
        assert get_registry().counters()["store/dedup"] >= n_after_first


# -- the CLI ------------------------------------------------------------------


class TestFleetCLI:
    def test_quarantine_ls_and_status(self, tmp_path, capsys):
        from repro.tools import fleet as cli

        design = tiny_design(betas=(5.5, 5.6))
        fault = FleetFaultPlan().fail_worker(1, at_trajectory=0)
        fleet = Fleet(
            tmp_path / "fleet",
            design,
            max_workers=2,
            retry=RetryPolicy(max_retries=0, backoff_base=0.02),
        )
        fleet.run(fault=fault)

        rc = cli.main(["status", "--dir", str(tmp_path / "fleet")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out and "quarantined" in out

        rc = cli.main(["quarantine-ls", "--dir", str(tmp_path / "fleet"), "--evidence"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "point_0001" in out and "max-retries" in out

    def test_run_exit_code_signals_quarantine(self, tmp_path, capsys):
        from repro.tools import fleet as cli

        rc = cli.main(
            [
                "run",
                "--dir",
                str(tmp_path / "fleet"),
                "--shape",
                "2",
                "2",
                "2",
                "2",
                "--betas",
                "5.5",
                "--trajectories",
                "2",
                "--n-steps",
                "2",
                "--checkpoint-interval",
                "2",
                "--max-retries",
                "0",
                "--backoff-base",
                "0.02",
                "--fail-point",
                "0",
                "--quiet",
            ]
        )
        capsys.readouterr()
        assert rc == 3
        assert (tmp_path / "fleet" / "quarantine.json").exists()
