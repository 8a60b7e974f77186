"""Tier-1 tests for the content-addressed ensemble store (``repro.store``).

The contracts under test:

* **keys** — canonical hashing is order-independent, float-exact, and
  sensitive to every provenance field that can change the bytes;
* **EnsembleStore** — CRC-verified put/get round trips, deterministic
  dedup, key-collision refusal, journal replay across reopen, ingest from
  loose ensembles and campaign checkpoint stores, audit/gc;
* **MeasurementCache** — journaled results survive reload bit-for-bit,
  hits/misses/invalidations are counter-exact, fault-journal sweeps evict
  exactly the dependent entries;
* **MeasurementService** — a warm request is served with zero operator
  applies, and a heal/rollback incident invalidates then recomputes to
  bit-identical values (the reproducibility contract of the cache).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignConfig, FaultPlan, HMCCampaign
from repro.fields import GaugeField
from repro.io import load_gauge, save_ensemble
from repro.lattice import Lattice4D
from repro.store import (
    EnsembleStore,
    MeasurementCache,
    MeasurementRequest,
    MeasurementService,
    StoreError,
    StoreKeyCollision,
    canonical_json,
    config_key,
    content_key,
    request_key,
)
from repro.telemetry import full_reset, set_mode, telemetry_mode
from repro.telemetry.registry import get_registry
from repro.tools import check_config, generate_ensemble
from repro.tools import store as store_cli

DIMS = (4, 4, 4, 4)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    set_mode("off")
    full_reset()
    yield
    set_mode("off")
    full_reset()


def _provenance(trajectory=0, beta=5.6, seed=1, **extra):
    return {
        "action": "wilson",
        "couplings": {"beta": beta},
        "trajectory": trajectory,
        "rng": {"seed": seed, "algorithm": "test"},
        **extra,
    }


@pytest.fixture()
def store(tmp_path):
    return EnsembleStore(tmp_path / "store")


@pytest.fixture(scope="module")
def warm_gauges():
    lat = Lattice4D(DIMS)
    return [GaugeField.warm(lat, rng=r) for r in (1, 2, 3)]


# -- canonical keys -----------------------------------------------------------


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"a": 1, "b": [1, 2]}) == canonical_json(
            {"b": [1, 2], "a": 1}
        )

    def test_floats_round_trip_exactly(self):
        x = 0.1 + 0.2  # not representable prettily; repr round-trips it
        assert canonical_json({"x": x}) == f'{{"x":{x!r}}}'

    def test_numpy_scalars_and_tuples_normalise(self):
        assert content_key({"v": np.float64(1.5), "s": (4, 4)}) == content_key(
            {"v": 1.5, "s": [4, 4]}
        )

    def test_non_key_material_raises(self):
        with pytest.raises(TypeError, match="not key material"):
            content_key({"x": object()})

    def test_config_key_sensitivity(self):
        base = dict(
            shape=DIMS, action="wilson", couplings={"beta": 5.6},
            trajectory=3, rng={"seed": 1},
        )
        key = config_key(**base)
        assert key == config_key(**base)  # deterministic
        for change in (
            {"couplings": {"beta": 5.7}},
            {"trajectory": 4},
            {"rng": {"seed": 2}},
            {"action": "clover"},
            {"shape": (8, 4, 4, 4)},
        ):
            assert config_key(**{**base, **change}) != key

    def test_request_key_sensitivity(self):
        key = request_key("cfg", "spectrum", {"m": 0.1}, {"kernel": "fused"})
        assert request_key("cfg", "spectrum", {"m": 0.1}, {"kernel": "fused"}) == key
        assert request_key("cfg", "spectrum", {"m": 0.2}, {"kernel": "fused"}) != key
        assert request_key("cfg", "plaquette", {"m": 0.1}, {"kernel": "fused"}) != key
        assert request_key("cfg", "spectrum", {"m": 0.1}, {"kernel": "reference"}) != key
        assert request_key("other", "spectrum", {"m": 0.1}, {"kernel": "fused"}) != key


# -- the ensemble store -------------------------------------------------------


class TestEnsembleStore:
    def test_put_get_round_trip(self, store, warm_gauges):
        key = store.put(warm_gauges[0], _provenance())
        assert key in store and len(store) == 1
        gauge, meta = store.get(key)
        assert np.array_equal(gauge.u, warm_gauges[0].u)
        assert meta["provenance"]["couplings"] == {"beta": 5.6}

    def test_dedup_same_provenance_same_bytes(self, store, warm_gauges):
        with telemetry_mode("counters"):
            k1 = store.put(warm_gauges[0], _provenance())
            k2 = store.put(warm_gauges[0], _provenance())
        assert k1 == k2 and len(store) == 1
        counters = get_registry().counters()
        assert counters["store/puts"] == 1
        assert counters["store/dedup"] == 1

    def test_key_collision_refused(self, store, warm_gauges):
        store.put(warm_gauges[0], _provenance())
        with pytest.raises(StoreKeyCollision, match="different bytes"):
            store.put(warm_gauges[1], _provenance())

    def test_incomplete_provenance_refused(self, store, warm_gauges):
        with pytest.raises(StoreError, match="missing 'rng'"):
            store.put(
                warm_gauges[0],
                {"action": "wilson", "couplings": {}, "trajectory": 0},
            )

    def test_reopen_replays_index(self, store, warm_gauges, tmp_path):
        keys = [
            store.put(g, _provenance(trajectory=i))
            for i, g in enumerate(warm_gauges)
        ]
        store.remove(keys[1])
        again = EnsembleStore(tmp_path / "store", create=False)
        assert again.keys() == [keys[0], keys[2]]
        gauge, _ = again.get(keys[2])
        assert np.array_equal(gauge.u, warm_gauges[2].u)

    def test_torn_index_tail_then_puts_survive_reopen(self, store, warm_gauges, tmp_path):
        store.put(warm_gauges[0], _provenance(trajectory=0))
        index = tmp_path / "store" / "index.jsonl"
        index.write_bytes(index.read_bytes()[:-7])  # crash mid-append
        reopened = EnsembleStore(tmp_path / "store")
        assert len(reopened) == 0
        k1 = reopened.put(warm_gauges[1], _provenance(trajectory=1))
        k2 = reopened.put(warm_gauges[2], _provenance(trajectory=2))
        again = EnsembleStore(tmp_path / "store")
        assert again.keys() == [k1, k2]
        assert [e["step"] for e in again.entries().values()] == [0, 1]

    def test_open_non_store_refused(self, tmp_path):
        with pytest.raises(StoreError, match="not an ensemble store"):
            EnsembleStore(tmp_path / "nothing", create=False)

    def test_query_by_provenance(self, store, warm_gauges):
        store.put(warm_gauges[0], _provenance(trajectory=0, beta=5.6))
        store.put(warm_gauges[1], _provenance(trajectory=1, beta=5.6, seed=2))
        store.put(warm_gauges[2], _provenance(trajectory=0, beta=5.9, seed=3))
        assert len(store.query(couplings={"beta": 5.6})) == 2
        assert len(store.query(trajectory=0)) == 2
        assert len(store.query(couplings={"beta": 5.9}, trajectory=0)) == 1

    def test_gc_removes_orphans(self, store, warm_gauges):
        key = store.put(warm_gauges[0], _provenance())
        stray = store.objects_dir / "zz" / "deadbeef.npz"
        stray.parent.mkdir(parents=True)
        stray.write_bytes(b"not a config")
        # What a SIGKILL inside atomic_write_bytes leaves beside the object.
        live = store.path_for(key)
        torn = live.parent / f".{live.name}.k3x9q_2a.tmp"
        torn.write_bytes(b"half an obj")
        removed = store.gc()
        assert removed == sorted([stray, torn])
        assert store.path_for(key).exists()

    def test_audit_flags_missing_and_clean(self, store, warm_gauges):
        k_ok = store.put(warm_gauges[0], _provenance(trajectory=0))
        k_gone = store.put(warm_gauges[1], _provenance(trajectory=1))
        store.path_for(k_gone).unlink()
        results = {key: rc for key, rc, _ in store.audit()}
        assert results[k_ok] == 0
        assert results[k_gone] == 2


class TestIngest:
    def test_ingest_directory_matches_generate_store_keys(self, tmp_path):
        """Loose-file ingest derives the same keys as generation-time puts."""
        gen_store = EnsembleStore(tmp_path / "s1")
        generate_ensemble.generate_ensemble(
            DIMS, 5.6, 2, tmp_path / "ens", therm=2, separation=1, seed=7,
            verbose=False, store=gen_store,
        )
        ingest_store = EnsembleStore(tmp_path / "s2")
        keys = ingest_store.ingest_directory(tmp_path / "ens")
        assert keys == gen_store.keys()

    def test_ingest_directory_is_idempotent(self, tmp_path):
        generate_ensemble.generate_ensemble(
            DIMS, 5.6, 2, tmp_path / "ens", therm=2, separation=1, seed=7,
            verbose=False,
        )
        store = EnsembleStore(tmp_path / "store")
        first = store.ingest_directory(tmp_path / "ens")
        second = store.ingest_directory(tmp_path / "ens")
        assert first == second and len(store) == 2

    def test_ingest_campaign_checkpoints(self, tmp_path):
        camp_dir = tmp_path / "camp"
        campaign = HMCCampaign(
            camp_dir,
            CampaignConfig(
                shape=DIMS, beta=5.6, n_trajectories=4, n_steps=3,
                checkpoint_interval=2, seed=11,
            ),
        )
        campaign.run()
        store = EnsembleStore(tmp_path / "store")
        keys = store.ingest_campaign(camp_dir)
        assert len(keys) == 2  # checkpoints at trajectories 2 and 4
        trajs = [e["provenance"]["trajectory"] for e in store.entries().values()]
        assert trajs == [2, 4]
        # The stored bytes are the checkpointed gauge, CRC-verified on read.
        gauge, meta = store.get(keys[-1])
        assert meta["provenance"]["source"] == "camp"
        assert gauge.lattice.shape == DIMS


    def test_every_crash_point_of_ingest_and_serve(self, tmp_path, crash_points):
        """Crash a 3-config ingest plus a cached plaquette pass at each
        fsync/replace boundary, and with half a line written at each journal
        append; the rerun (and gc) must end in the uninterrupted state."""
        lat = Lattice4D((2, 2, 2, 2))
        ens = tmp_path / "ens"
        save_ensemble(ens, [GaugeField.warm(lat, rng=r) for r in range(3)], beta=5.6, seed=1)

        def job(root):
            def run():
                store = EnsembleStore(root)
                store.ingest_directory(ens)
                MeasurementService(store).serve_ensemble("plaquette")

            return run

        def state(root):
            store = EnsembleStore(root)
            objects = sorted(p.name for p in store.objects_dir.glob("*/*.npz"))
            return (
                (root / "index.jsonl").read_bytes(),
                (root / "cache" / "cache.jsonl").read_bytes(),
                store.entries(),
                objects,
            )

        ref = tmp_path / "ref"
        assert crash_points.run(job(ref)) == 15 + 3  # ingest, then 3 cache appends
        want = state(ref)
        assert want[3] == sorted(f"{key}.npz" for key in want[2])
        n_appends = crash_points.run_torn(job(tmp_path / "count"))
        assert n_appends == 6
        cases = [("boundary", k) for k in range(1, 19)]
        cases += [("torn", k) for k in range(1, n_appends + 1)]
        for kind, k in cases:
            root = tmp_path / f"{kind}{k}"
            if kind == "boundary":
                crash_points.run(job(root), crash_at=k)
            else:
                crash_points.run_torn(job(root), torn_at=k)
            job(root)()
            EnsembleStore(root).gc()
            assert state(root) == want, (kind, k)


# -- the measurement cache ----------------------------------------------------


class TestMeasurementCache:
    def _request(self, n=0, **tags):
        return MeasurementRequest(
            config_key=f"cfg{n}", observable="plaquette",
            params={"p": 1}, env={"kernel": "fused"}, tags=tags,
        )

    def test_miss_then_hit_counters(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        req = self._request()
        with telemetry_mode("counters"):
            values, hit = cache.get_or_compute(req, lambda: {"plaquette": 0.5})
            assert (values, hit) == ({"plaquette": 0.5}, False)
            values, hit = cache.get_or_compute(req, lambda: {"plaquette": 999.0})
            assert (values, hit) == ({"plaquette": 0.5}, True)
        counters = get_registry().counters()
        assert counters["store/misses"] == 1
        assert counters["store/hits"] == 1

    def test_reload_is_bit_identical(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        values = {"x": 0.1 + 0.2, "corr": [1e-300, -2.5000000000000004]}
        cache.put(self._request(), values)
        again = MeasurementCache(tmp_path)
        got = again.lookup(self._request())
        assert got == values
        assert all(
            a.hex() == b.hex() for a, b in zip(got["corr"], values["corr"])
        )

    def test_invalidate_config_and_journal_replay(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        cache.put(self._request(0), {"v": 1.0})
        cache.put(self._request(1), {"v": 2.0})
        with telemetry_mode("counters"):
            assert cache.invalidate_config("cfg0") == 1
        assert get_registry().counters()["store/invalidations"] == 1
        assert cache.lookup(self._request(0)) is None
        assert cache.lookup(self._request(1)) == {"v": 2.0}
        # the eviction is journaled: a replayed cache agrees
        again = MeasurementCache(tmp_path)
        assert again.lookup(self._request(0)) is None
        assert len(again) == 1

    def test_invalidate_where_predicate(self, tmp_path):
        cache = MeasurementCache(tmp_path)
        cache.put(self._request(0, trajectory=2), {"v": 1.0})
        cache.put(self._request(1, trajectory=8), {"v": 2.0})
        n = cache.invalidate_where(
            lambda e: e["tags"].get("trajectory", -1) >= 5, reason="test"
        )
        assert n == 1
        assert cache.lookup(self._request(1, trajectory=8)) is None


# -- the measurement service --------------------------------------------------


def _applies(counters):
    return sum(v for k, v in counters.items() if k.startswith("applies/"))


class TestMeasurementService:
    def test_warm_request_zero_applies_bit_identical(self, store, warm_gauges):
        """The acceptance contract: a repeated request is a counted cache hit
        that performs no operator applications and returns the same bytes."""
        key = store.put(warm_gauges[0], _provenance())
        service = MeasurementService(store)
        params = {"quark_mass": 0.3, "tol": 1e-7}
        with telemetry_mode("counters"):
            reg = get_registry()
            cold, hit_cold = service.request(key, "correlators", params)
            assert not hit_cold
            assert _applies(reg.counters()) > 0
            before = dict(reg.counters())
            warm, hit_warm = service.request(key, "correlators", params)
            after = reg.counters()
        assert hit_warm
        assert after["store/hits"] == before.get("store/hits", 0) + 1
        assert _applies(after) == _applies(before)  # zero new applies
        assert warm == cold
        assert all(
            a.hex() == b.hex()
            for a, b in zip(warm["pion_corr"], cold["pion_corr"])
        )

    def test_solves_coalesce_through_queue(self, store, warm_gauges):
        key = store.put(warm_gauges[0], _provenance())
        service = MeasurementService(store)
        with telemetry_mode("counters"):
            service.request(key, "correlators", {"quark_mass": 0.3, "tol": 1e-7})
            counters = get_registry().counters()
        assert counters["serve/requests"] == 12  # one propagator's sources
        assert counters["serve/batches"] == 1  # coalesced into one block solve
        assert counters["serve/batched_rhs"] == 12

    def test_params_and_observable_separate_entries(self, store, warm_gauges):
        key = store.put(warm_gauges[0], _provenance())
        service = MeasurementService(store)
        v1, _ = service.request(key, "plaquette")
        _, hit = service.request(key, "observables")
        assert not hit
        _, hit = service.request(key, "plaquette")
        assert hit
        assert v1["plaquette"] == pytest.approx(0.786, abs=0.01)

    def test_unknown_observable_refused(self, store, warm_gauges):
        key = store.put(warm_gauges[0], _provenance())
        with pytest.raises(ValueError, match="unknown observable"):
            MeasurementService(store).request(key, "nope")

    def test_serve_ensemble_covers_every_config(self, store, warm_gauges):
        for i, g in enumerate(warm_gauges):
            store.put(g, _provenance(trajectory=i))
        results = MeasurementService(store).serve_ensemble("plaquette")
        assert set(results) == set(store.keys())
        assert len({r["plaquette"] for r in results.values()}) == 3


# -- invalidation by campaign heal/rollback -----------------------------------


class TestFaultInvalidation:
    def _run_campaign(self, directory, fault=None, guard=None, n_traj=6):
        campaign = HMCCampaign(
            directory,
            CampaignConfig(
                shape=DIMS, beta=5.6, n_trajectories=n_traj, n_steps=3,
                checkpoint_interval=2, seed=11,
            ),
        )
        campaign.run(fault=fault, guard=guard)
        return campaign

    def test_rollback_evicts_dependent_entries_recompute_bit_identical(
        self, tmp_path
    ):
        """The satellite contract: inject an SDC fault -> the heal/rollback
        journal evicts dependent cache entries -> the re-request is a miss
        whose recomputation is bit-identical (exact-resume made the healed
        stream reproduce the unfaulted bytes)."""
        # Reference: unfaulted campaign, ingested and fully served.
        ref_dir = tmp_path / "ref"
        self._run_campaign(ref_dir)
        ref_store = EnsembleStore(tmp_path / "ref_store")
        ref_store.ingest_campaign(ref_dir)
        ref_values = MeasurementService(ref_store).serve_ensemble("observables")

        # Faulted: one silently flipped gauge bit before trajectory 5,
        # healed by rollback to the checkpoint at 4.
        camp_dir = tmp_path / "camp"
        self._run_campaign(
            camp_dir,
            fault=FaultPlan().flip_gauge_bit_at(5, flat_index=123),
            guard="heal",
        )
        faults = (camp_dir / "faults.jsonl").read_text().splitlines()
        assert len(faults) == 1 and '"action": "rollback"' in faults[0]

        store = EnsembleStore(tmp_path / "store")
        keys = store.ingest_campaign(camp_dir)
        service = MeasurementService(store)
        with telemetry_mode("counters"):
            first = service.serve_ensemble("observables")

            # The heal/rollback event invalidates every cached measurement on
            # trajectories the rollback re-executed (>= the fault step).
            evicted = service.sync_campaign_faults(camp_dir)
            assert evicted == 1  # trajectory 6; trajectories 2 and 4 survive
            assert get_registry().counters()["store/invalidations"] == 1
            by_traj = {
                store.entries()[k]["provenance"]["trajectory"]: k for k in keys
            }
            assert service.cache.lookup(
                service.request_for(by_traj[6], "observables")
            ) is None
            assert service.cache.lookup(
                service.request_for(by_traj[4], "observables")
            ) is not None

            # Re-request: a miss that recomputes to bit-identical values.
            values6, hit = service.request(by_traj[6], "observables")
        assert not hit
        assert values6 == first[by_traj[6]]
        # ... and identical to the unfaulted reference stream's bytes.
        assert first == {
            store.keys()[i]: ref_values[ref_store.keys()[i]]
            for i in range(len(keys))
        }
        # The sweep is incremental: a second sync evicts nothing more.
        assert service.sync_campaign_faults(camp_dir) == 0

    def test_sync_without_faults_is_noop(self, tmp_path):
        camp_dir = tmp_path / "camp"
        self._run_campaign(camp_dir, n_traj=2)
        store = EnsembleStore(tmp_path / "store")
        store.ingest_campaign(camp_dir)
        service = MeasurementService(store)
        service.serve_ensemble("plaquette")
        assert service.sync_campaign_faults(camp_dir) == 0


# -- CLIs ---------------------------------------------------------------------


@pytest.fixture()
def loose_ensemble(tmp_path):
    out = tmp_path / "ens"
    generate_ensemble.main(
        [
            "--shape", "4", "4", "4", "4", "--beta", "5.6", "--configs", "2",
            "--therm", "2", "--separation", "1", "--seed", "7",
            "--out", str(out),
        ]
    )
    return out


class TestStoreCLI:
    def test_ingest_ls_get_audit_gc(self, tmp_path, loose_ensemble, capsys):
        root = str(tmp_path / "store")
        assert store_cli.main(["ingest", str(loose_ensemble), "--root", root]) == 0
        assert "2 configuration(s)" in capsys.readouterr().out

        assert store_cli.main(["ls", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "traj=1" in out and "plaquette=" in out

        key = EnsembleStore(root, create=False).keys()[0]
        out_npz = tmp_path / "exported.npz"
        assert store_cli.main(["get", key[:10], "--root", root, "--out", str(out_npz)]) == 0
        exported, _ = load_gauge(out_npz)
        original, _ = load_gauge(loose_ensemble / "cfg_0000.npz")
        assert np.array_equal(exported.u, original.u)

        assert store_cli.main(["audit", "--root", root]) == 0
        assert store_cli.main(["gc", "--root", root]) == 0

    def test_serve_repeat_hits_cache(self, tmp_path, loose_ensemble, capsys):
        root = str(tmp_path / "store")
        store_cli.main(["ingest", str(loose_ensemble), "--root", root])
        capsys.readouterr()
        rc = store_cli.main(
            ["serve", "--root", root, "--observable", "plaquette", "--repeat", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "store/hits = 2" in out
        assert "store/misses = 2" in out

    def test_audit_rc_worst_of(self, tmp_path, loose_ensemble, capsys):
        root = tmp_path / "store"
        store_cli.main(["ingest", str(loose_ensemble), "--root", str(root)])
        store = EnsembleStore(root, create=False)
        store.path_for(store.keys()[1]).unlink()
        assert store_cli.main(["audit", "--root", str(root)]) == 2
        assert "object file missing" in capsys.readouterr().out

    def test_ambiguous_and_missing_keys(self, tmp_path, loose_ensemble, capsys):
        root = str(tmp_path / "store")
        store_cli.main(["ingest", str(loose_ensemble), "--root", root])
        rc = store_cli.main(
            ["get", "", "--root", root, "--out", str(tmp_path / "x.npz")]
        )
        assert rc == 2
        assert "ambiguous" in capsys.readouterr().out
        rc = store_cli.main(
            ["get", "zzzz", "--root", root, "--out", str(tmp_path / "x.npz")]
        )
        assert rc == 2


class TestCheckConfigStoreMode:
    def test_store_root_audited_worst_of(self, tmp_path, loose_ensemble, capsys):
        root = tmp_path / "store"
        store = EnsembleStore(root)
        keys = store.ingest_directory(loose_ensemble)
        assert check_config.main([str(root)]) == 0  # auto-detected store root
        assert f"{root}:{keys[0][:16]}" in capsys.readouterr().out

        # rc 2 (missing object) dominates rc 0 files: worst-of aggregation.
        store.path_for(keys[1]).unlink()
        assert check_config.main(["--store", str(root)]) == 2
        out = capsys.readouterr().out
        assert "missing file" in out

    def test_mixed_store_and_loose_arguments(self, tmp_path, loose_ensemble):
        root = tmp_path / "store"
        EnsembleStore(root).ingest_directory(loose_ensemble)
        assert check_config.main([str(root), str(loose_ensemble)]) == 0


class TestServeCLICounters:
    def test_nrhs_flag_and_counter_summary(self, capsys):
        from repro.tools.serve import main as serve_main

        rc = serve_main(
            ["--dims", "2", "2", "2", "2", "--requests", "4", "--nrhs", "2",
             "--tol", "1e-6"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch width cap 2" in out
        assert "serve/requests = 4" in out
        assert "serve/batches = 2" in out
        assert "serve/batched_rhs = 4" in out
