"""Campaign layer: crash-consistent checkpoints, exact resume, fault recovery.

The headline contract under test: a crash (clean exception, SIGKILL, dead
ShmComm rank, or corrupted checkpoint) at any trajectory boundary loses at
most one checkpoint interval, and the resumed campaign's ledger and final
gauge field are bit-for-bit identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    CheckpointStore,
    CommFault,
    ConfigMismatchError,
    CorruptCheckpointError,
    FaultPlan,
    HMCCampaign,
    InjectedCrash,
    Ledger,
    LedgerError,
    MeasurementCampaign,
    RetryDeadlineExceeded,
    RetryPolicy,
    corrupt_checkpoint,
    read_checkpoint,
    run_resilient,
    write_checkpoint,
)
from repro.fields import GaugeField
from repro.hmc import HMC, WilsonGaugeAction
from repro.io import save_ensemble
from repro.lattice import Lattice4D
from repro.util.rng import restore_rng, rng_state

TINY = (2, 2, 2, 2)


def tiny_config(**overrides) -> CampaignConfig:
    base = dict(
        shape=TINY,
        beta=5.5,
        n_trajectories=8,
        n_steps=2,
        checkpoint_interval=2,
        seed=42,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def ledger_text(directory: Path) -> str:
    return (Path(directory) / "ledger.jsonl").read_text()


# -- checkpoint container -----------------------------------------------------


@pytest.fixture(scope="module")
def campaign_checkpoint(tmp_path_factory) -> Path:
    """The final checkpoint of a real 2^4 campaign (RNG state, HMC counters)."""
    camp = HMCCampaign(tmp_path_factory.mktemp("camp"), tiny_config(n_trajectories=2))
    camp.run()
    return camp.store.path_for(2)


def _damage(path: Path, find: bytes, offset: int, mask: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[blob.index(find) + offset] ^= mask
    path.write_bytes(bytes(blob))


class TestCheckpointContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        u = np.random.default_rng(1).normal(size=(4, 2, 2, 2, 2, 3, 3)) + 1j
        meta = {"step": 5, "rng": {"bit_generator": "PCG64"}, "plaquette": 0.25}
        path = tmp_path / "c.rpckpt"
        write_checkpoint(path, {"u": u}, meta)
        arrays, meta2 = read_checkpoint(path)
        assert np.array_equal(arrays["u"], u)
        assert arrays["u"].dtype == u.dtype
        assert meta2 == meta

    def test_write_is_atomic_no_temp_left(self, tmp_path):
        write_checkpoint(tmp_path / "c.rpckpt", {"x": np.arange(3)}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["c.rpckpt"]

    @pytest.mark.parametrize(
        "mode", ["truncate", "flip-payload", "bad-version", "bad-magic"]
    )
    def test_corruption_detected(self, tmp_path, mode):
        path = tmp_path / "c.rpckpt"
        write_checkpoint(path, {"x": np.arange(100.0)}, {"step": 1})
        corrupt_checkpoint(path, mode)
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(path)

    def test_missing_file_is_corrupt_error(self, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(tmp_path / "nope.rpckpt")

    def test_flipped_meta_digit_is_not_loaded_silently(self, tmp_path, campaign_checkpoint):
        path = tmp_path / "c.rpckpt"
        path.write_bytes(campaign_checkpoint.read_bytes())
        # "plaquette": 0.dddd... -> one digit of the stamp changes by one
        _damage(path, b'"plaquette": ', len(b'"plaquette": 0.'), 0x01)
        with pytest.raises(CorruptCheckpointError):
            read_checkpoint(path)

    @pytest.mark.parametrize("stride", [97, pytest.param(1, marks=pytest.mark.slow)])
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # flipped npy dtype codes
    def test_every_bit_flip_is_caught_or_harmless(
        self, tmp_path, campaign_checkpoint, bit_flip_sweep, stride
    ):
        path = tmp_path / "c.rpckpt"
        path.write_bytes(campaign_checkpoint.read_bytes())
        meta = read_checkpoint(path)[1]
        assert {"rng", "hmc", "plaquette", "step"} <= set(meta)
        typed, same = bit_flip_sweep(path, read_checkpoint, CorruptCheckpointError, stride)
        assert typed > same > 0


class TestCheckpointStore:
    def _fill(self, store, steps):
        for s in steps:
            store.save(s, {"x": np.full(4, float(s))}, {"tag": s})

    def test_latest_returns_newest_good(self, tmp_path):
        store = CheckpointStore(tmp_path)
        self._fill(store, [2, 4, 6])
        step, arrays, meta = store.latest()
        assert step == 6 and meta["step"] == 6
        assert np.array_equal(arrays["x"], np.full(4, 6.0))

    @pytest.mark.parametrize(
        "mode", ["truncate", "flip-payload", "bad-version", "bad-magic"]
    )
    def test_falls_back_past_corrupt_newest(self, tmp_path, mode):
        store = CheckpointStore(tmp_path)
        self._fill(store, [2, 4, 6])
        corrupt_checkpoint(store.path_for(6), mode)
        step, arrays, _ = store.latest()
        assert step == 4
        assert np.array_equal(arrays["x"], np.full(4, 4.0))
        assert len(store.skipped) == 1 and store.skipped[0][0].name == "ckpt_00000006.rpckpt"

    def test_latest_skips_damaged_header_key(self, tmp_path):
        store = CheckpointStore(tmp_path)
        self._fill(store, [2, 4])
        _damage(store.path_for(4), b'"crc32"', 3, 0x20)  # "crc32" -> "crC32"
        step, arrays, _ = store.latest()
        assert step == 2
        assert np.array_equal(arrays["x"], np.full(4, 2.0))
        assert [p.name for p, _ in store.skipped] == ["ckpt_00000004.rpckpt"]

    def test_all_corrupt_returns_none_not_garbage(self, tmp_path):
        store = CheckpointStore(tmp_path)
        self._fill(store, [2, 4])
        corrupt_checkpoint(store.path_for(2), "flip-payload")
        corrupt_checkpoint(store.path_for(4), "truncate")
        assert store.latest() is None
        assert len(store.skipped) == 2

    def test_prune_keeps_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        self._fill(store, [1, 2, 3, 4])
        assert store.steps() == [3, 4]


# -- ledger -------------------------------------------------------------------


class TestLedger:
    def test_append_and_read(self, tmp_path):
        led = Ledger(tmp_path / "l.jsonl")
        led.append({"step": 0, "x": 1.5})
        led.append({"step": 1, "x": -2.0})
        assert led.records() == [{"step": 0, "x": 1.5}, {"step": 1, "x": -2.0}]
        assert led.last_step() == 1

    def test_record_requires_step(self, tmp_path):
        with pytest.raises(ValueError):
            Ledger(tmp_path / "l.jsonl").append({"x": 1})

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        led = Ledger(path)
        led.append({"step": 0})
        with open(path, "a") as fh:
            fh.write('{"step": 1, "x"')  # crash mid-append
        assert led.records() == [{"step": 0}]

    def test_interior_damage_raises(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text('GARBAGE\n{"step": 1}\n')
        with pytest.raises(LedgerError):
            Ledger(path).records()

    def test_truncate_to_drops_tail_and_torn_line(self, tmp_path):
        path = tmp_path / "l.jsonl"
        led = Ledger(path)
        for s in range(5):
            led.append({"step": s})
        with open(path, "a") as fh:
            fh.write('{"ste')
        dropped = led.truncate_to(3)
        assert dropped == 2
        assert [r["step"] for r in led.records()] == [0, 1, 2]
        led.append({"step": 3})  # appends continue cleanly
        assert led.last_step() == 3

    @pytest.mark.parametrize("tail", ['{"kind": "x", "st', '{"kind": "x", "step": 2}'])
    def test_append_after_torn_tail_continues_the_sequence(self, tmp_path, tail):
        path = tmp_path / "l.jsonl"
        led = Ledger(path)
        led.append_next({"kind": "x"})
        led.append_next({"kind": "x"})
        with open(path, "a") as fh:
            fh.write(tail)  # crash mid-append: no newline
        kept = len(Ledger(path).records())
        reopened = Ledger(path)
        assert reopened.append_next({"kind": "y"})["step"] == kept
        reopened.append_next({"kind": "y"})
        records = Ledger(path).records()
        assert [r["step"] for r in records] == list(range(kept + 2))
        assert [r["kind"] for r in records[-2:]] == ["y", "y"]


# -- RNG round trip through an interrupted HMC stream -------------------------


class TestRngRoundTrip:
    def test_interrupted_hmc_stream_is_bit_identical(self):
        lat = Lattice4D(TINY)

        def fresh():
            rng = np.random.default_rng(9)
            gauge = GaugeField.hot(lat, rng=rng)
            return gauge, HMC(WilsonGaugeAction(5.5), n_steps=2, rng=rng)

        # Uninterrupted: 6 trajectories straight through.
        g1, h1 = fresh()
        ref = [h1.trajectory(g1) for _ in range(6)]

        # Interrupted after 3: serialise RNG + gauge, rebuild, continue.
        g2, h2 = fresh()
        first = [h2.trajectory(g2) for _ in range(3)]
        state = rng_state(h2.rng)
        u = g2.u.copy()
        counters = h2.state_dict()

        g3 = GaugeField(lat, u.copy())
        h3 = HMC(WilsonGaugeAction(5.5), n_steps=2, rng=restore_rng(state))
        h3.load_state_dict(counters)
        rest = [h3.trajectory(g3) for _ in range(3)]

        resumed = first + rest
        for a, b in zip(ref, resumed):
            assert a.delta_h == b.delta_h
            assert a.plaquette == b.plaquette
            assert a.accepted == b.accepted
        assert np.array_equal(g1.u, g3.u)


# -- HMC campaign resume ------------------------------------------------------


class TestHMCCampaign:
    def test_fresh_run_journals_every_trajectory(self, tmp_path):
        camp = HMCCampaign(tmp_path / "a", tiny_config())
        summary = camp.run()
        records = camp.ledger.records()
        assert [r["step"] for r in records] == list(range(8))
        assert summary.resumed_from is None
        assert camp.store.steps()[-1] == 8

    def test_completed_campaign_rerun_is_noop(self, tmp_path):
        camp = HMCCampaign(tmp_path / "a", tiny_config())
        s1 = camp.run()
        before = ledger_text(tmp_path / "a")
        s2 = HMCCampaign(tmp_path / "a").run()  # config loaded from disk
        assert s2.resumed_from == 8
        assert s2.final_plaquette == s1.final_plaquette
        assert ledger_text(tmp_path / "a") == before

    @pytest.mark.parametrize("crash_at", [1, 3, 5, 7])
    def test_crash_resume_parity_at_any_boundary(self, tmp_path, crash_at):
        ref = HMCCampaign(tmp_path / "ref", tiny_config())
        ref.run()

        camp = HMCCampaign(tmp_path / "crash", tiny_config())
        with pytest.raises(InjectedCrash):
            camp.run(fault=FaultPlan().crash_at(crash_at))
        # At most one checkpoint interval of journaled work is redone.
        resumed = HMCCampaign(tmp_path / "crash").run()
        expected = (crash_at // 2) * 2  # last checkpoint boundary before the crash
        assert resumed.resumed_from == (expected if expected else None)
        assert ledger_text(tmp_path / "ref") == ledger_text(tmp_path / "crash")
        a_ref = ref.store.latest()[1]
        a_new = camp.store.latest()[1]
        assert np.array_equal(a_ref["u"], a_new["u"])

    def test_corrupt_newest_checkpoint_falls_back_one_interval(self, tmp_path):
        ref = HMCCampaign(tmp_path / "ref", tiny_config())
        ref.run()

        camp = HMCCampaign(tmp_path / "crash", tiny_config())
        with pytest.raises(InjectedCrash):
            camp.run(fault=FaultPlan().crash_at(5))
        corrupt_checkpoint(camp.store.path_for(4), "flip-payload")
        summary = HMCCampaign(tmp_path / "crash").run()
        assert summary.resumed_from == 2
        assert summary.skipped_checkpoints == 1
        assert ledger_text(tmp_path / "ref") == ledger_text(tmp_path / "crash")

    def test_every_crash_point_resumes_to_the_reference(self, tmp_path, crash_points):
        """Crash at each fsync/replace boundary of a 4-trajectory campaign,
        and with half a line written at each ledger append; the rerun must
        end with the uninterrupted run's ledger and final checkpoint."""
        cfg = tiny_config(n_trajectories=4)
        final = Path("checkpoints") / "ckpt_00000004.rpckpt"

        def job(directory):
            return lambda: HMCCampaign(directory, cfg).run()

        ref = tmp_path / "ref"
        assert crash_points.run(job(ref)) == 16
        want_arrays, want_meta = read_checkpoint(ref / final)
        n_appends = crash_points.run_torn(job(tmp_path / "count"))
        assert n_appends == 4
        cases = [("boundary", k) for k in range(1, 17)]
        cases += [("torn", k) for k in range(1, n_appends + 1)]
        for kind, k in cases:
            directory = tmp_path / f"{kind}{k}"
            if kind == "boundary":
                crash_points.run(job(directory), crash_at=k)
            else:
                crash_points.run_torn(job(directory), torn_at=k)
            job(directory)()
            assert ledger_text(directory) == ledger_text(ref), (kind, k)
            arrays, meta = read_checkpoint(directory / final)
            assert arrays["u"].tobytes() == want_arrays["u"].tobytes(), (kind, k)
            assert meta == want_meta, (kind, k)

    def test_physics_mismatch_refused(self, tmp_path):
        HMCCampaign(tmp_path / "a", tiny_config())
        with pytest.raises(ConfigMismatchError):
            HMCCampaign(tmp_path / "a", tiny_config(beta=6.0))
        # Extending the stream is allowed.
        HMCCampaign(tmp_path / "a", tiny_config(n_trajectories=16))

    def test_stream_extension_resumes_from_end(self, tmp_path):
        HMCCampaign(tmp_path / "a", tiny_config()).run()
        ext = HMCCampaign(tmp_path / "a", tiny_config(n_trajectories=12)).run()
        assert ext.resumed_from == 8
        records = Ledger(tmp_path / "a" / "ledger.jsonl").records()
        assert [r["step"] for r in records] == list(range(12))

    def test_missing_config_dir_raises(self, tmp_path):
        with pytest.raises(ValueError):
            HMCCampaign(tmp_path / "nothing")


# -- SIGKILL crash consistency (real crash, separate process) -----------------


class TestSigkillCrashResume:
    def _cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.run_campaign", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )

    def test_sigkill_midstream_then_resume_is_bit_identical(self, tmp_path):
        args = [
            "--shape", "2", "2", "2", "2",
            "--beta", "5.5",
            "--trajectories", "10",
            "--n-steps", "2",
            "--checkpoint-interval", "3",
            "--seed", "17",
            "--quiet",
        ]
        ref = self._cli("run", "--dir", str(tmp_path / "ref"), *args)
        assert ref.returncode == 0, ref.stderr

        killed = self._cli(
            "run", "--dir", str(tmp_path / "crash"), *args, "--crash-after", "7"
        )
        assert killed.returncode == -9  # SIGKILL: no cleanup, no atexit

        resumed = self._cli("run", "--dir", str(tmp_path / "crash"), *args)
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from trajectory 6" in resumed.stdout

        assert ledger_text(tmp_path / "ref") == ledger_text(tmp_path / "crash")
        a = read_checkpoint(tmp_path / "ref" / "checkpoints" / "ckpt_00000010.rpckpt")
        b = read_checkpoint(tmp_path / "crash" / "checkpoints" / "ckpt_00000010.rpckpt")
        assert np.array_equal(a[0]["u"], b[0]["u"])

        status = self._cli("status", "--dir", str(tmp_path / "crash"))
        assert status.returncode == 0
        assert "10 records" in status.stdout


# -- supervised segments over ShmComm -----------------------------------------


class TestResilientRunner:
    def test_dead_rank_detected_torn_down_and_resumed(self, tmp_path):
        ref = HMCCampaign(tmp_path / "ref", tiny_config())
        ref.run()

        from repro.comm import RankGrid, ShmComm

        prefixes: list[str] = []

        def factory():
            comm = ShmComm(RankGrid((2, 1, 1, 1)), timeout=20.0)
            prefixes.append(comm._prefix)
            return comm

        camp = HMCCampaign(tmp_path / "comm", tiny_config())
        summary = run_resilient(
            camp,
            comm_factory=factory,
            fault=FaultPlan().kill_rank_at(5, rank=1),
            retry=RetryPolicy(backoff_base=0.0),
            sleep=lambda s: None,
        )
        assert summary.retries == 1
        assert summary.resumed_from == 4
        assert ledger_text(tmp_path / "ref") == ledger_text(tmp_path / "comm")
        if os.path.isdir("/dev/shm"):
            leaked = [
                n for n in os.listdir("/dev/shm") if any(p in n for p in prefixes)
            ]
            assert leaked == []

    def test_watchdog_raises_comm_fault(self, tmp_path):
        class DeadComm:
            healthy = False

            def workers_alive(self):
                return [False]

        camp = HMCCampaign(tmp_path / "a", tiny_config())
        with pytest.raises(CommFault, match="dead ranks"):
            camp.run(comm=DeadComm())

    def test_persistent_fault_exhausts_retries(self, tmp_path):
        camp = HMCCampaign(tmp_path / "a", tiny_config())
        fault = FaultPlan().crash_at(1).crash_at(1).crash_at(1)
        failures = []
        with pytest.raises(InjectedCrash):
            run_resilient(
                camp,
                fault=fault,
                retry=RetryPolicy(max_retries=2, backoff_base=0.0),
                sleep=lambda s: None,
                on_failure=lambda n, e: failures.append(n),
            )
        assert failures == [1, 2]

    def test_backoff_schedule(self):
        r = RetryPolicy(max_retries=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        assert [r.delay(i) for i in range(4)] == [0.1, 0.2, 0.3, 0.3]

    def test_backoff_jitter_seeded_and_bounded(self):
        r = RetryPolicy(backoff_base=0.1, backoff_max=10.0, jitter=0.5, jitter_seed=3)
        # replayable: the schedule is a pure function of (seed, key, attempt)
        assert [r.delay(i, key=7) for i in range(4)] == [
            r.delay(i, key=7) for i in range(4)
        ]
        # bounded: base <= delay <= base * (1 + jitter)
        plain = RetryPolicy(backoff_base=0.1, backoff_max=10.0)
        for i in range(4):
            assert plain.delay(i) <= r.delay(i, key=7) <= plain.delay(i) * 1.5
        # decorrelated across keys and seeds (no restart stampede)
        assert r.delay(0, key=7) != r.delay(0, key=8)
        r2 = RetryPolicy(backoff_base=0.1, backoff_max=10.0, jitter=0.5, jitter_seed=4)
        assert r.delay(0, key=7) != r2.delay(0, key=7)

    def test_deadline_caps_total_retry_budget(self):
        class AlwaysFails:
            def run(self, **kwargs):
                raise RuntimeError("persistent")

        clock = iter(float(t) for t in range(100)).__next__
        slept: list[float] = []
        with pytest.raises(RetryDeadlineExceeded) as excinfo:
            run_resilient(
                AlwaysFails(),
                retry=RetryPolicy(
                    max_retries=100, backoff_base=1.0, backoff_factor=1.0,
                    deadline=3.0,
                ),
                sleep=slept.append,
                clock=clock,
            )
        # the failure that tripped the deadline is chained as the cause
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # retries stop well before max_retries: the budget, not the count, binds
        assert len(slept) < 5

    def test_deadline_none_never_trips(self, tmp_path):
        camp = HMCCampaign(tmp_path / "a", tiny_config())
        fault = FaultPlan().crash_at(1)
        summary = run_resilient(
            camp,
            fault=fault,
            retry=RetryPolicy(max_retries=2, backoff_base=0.0, jitter=0.5),
            sleep=lambda s: None,
        )
        assert summary.retries == 1


# -- journaled measurement sweeps ---------------------------------------------


class TestMeasurementCampaign:
    @pytest.fixture
    def ensemble(self, tmp_path):
        lat = Lattice4D(TINY)
        configs = [GaugeField.hot(lat, rng=i) for i in range(4)]
        save_ensemble(tmp_path / "ens", configs, beta=5.5)
        return tmp_path / "ens"

    def test_sweep_journals_every_config(self, tmp_path, ensemble):
        camp = MeasurementCampaign(ensemble, tmp_path / "meas")
        records = camp.run()
        assert [r["step"] for r in records] == [0, 1, 2, 3]
        assert all(r["measure"] == "plaquette" for r in records)

    def test_interrupted_sweep_resumes_exactly(self, tmp_path, ensemble):
        ref = MeasurementCampaign(ensemble, tmp_path / "ref").run()

        camp = MeasurementCampaign(ensemble, tmp_path / "meas")
        with pytest.raises(InjectedCrash):
            camp.run(fault=FaultPlan().crash_at(2))
        assert [r["step"] for r in camp.ledger.records()] == [0, 1]
        measured = []
        MeasurementCampaign(ensemble, tmp_path / "meas").run(
            progress=lambda i, r: measured.append(i)
        )
        assert measured == [2, 3]  # completed work is never redone
        assert (tmp_path / "ref" / "measurements.jsonl").read_text() == (
            tmp_path / "meas" / "measurements.jsonl"
        ).read_text()

    def test_unknown_observable_rejected(self, tmp_path, ensemble):
        with pytest.raises(ValueError, match="unknown measurement"):
            MeasurementCampaign(ensemble, tmp_path / "m", measure="nope")

    def test_empty_ensemble_raises(self, tmp_path):
        (tmp_path / "ens").mkdir()
        with pytest.raises(FileNotFoundError):
            MeasurementCampaign(tmp_path / "ens", tmp_path / "m").run()


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_measure_and_status(self, tmp_path, capsys):
        from repro.tools.run_campaign import main

        lat = Lattice4D(TINY)
        save_ensemble(tmp_path / "ens", [GaugeField.hot(lat, rng=i) for i in range(2)])
        rc = main(
            [
                "measure",
                "--dir", str(tmp_path / "m"),
                "--ensemble", str(tmp_path / "ens"),
                "--quiet",
            ]
        )
        assert rc == 0
        assert "measured 2 configurations" in capsys.readouterr().out
        rc = main(["status", "--dir", str(tmp_path / "m")])
        assert rc == 0
        assert "2 records" in capsys.readouterr().out

    def test_run_requires_full_config_for_new_dir(self, tmp_path):
        from repro.tools.run_campaign import main

        with pytest.raises(SystemExit):
            main(["run", "--dir", str(tmp_path / "x"), "--beta", "5.5"])
