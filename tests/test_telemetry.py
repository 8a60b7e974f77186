"""The telemetry layer: golden counter exactness, trace schema, bit-parity.

Three families of guarantees:

* **Counter exactness** — every nominal count (flops, sites, applies, halo
  bytes, collectives, solver linalg) matches its analytic per-site formula
  exactly, across kernels and across comm backends.
* **Trace schema** — trace-mode output is valid Chrome trace-event JSON
  (the format Perfetto and ``chrome://tracing`` load), spans nest and
  survive exceptions, and the checked-in fixture stays loadable.
* **Non-intrusiveness** — switching ``REPRO_TELEMETRY`` never changes the
  physics: solver iterates and campaign ledgers are bit-for-bit identical
  at every mode.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.comm import RankGrid, ShmComm, VirtualComm
from repro.dirac import DomainWallDirac, EvenOddWilson, WilsonDirac
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.operator import MatrixOperator
from repro.fields import GaugeField, random_fermion
from repro.guard.abft import GuardedOperator
from repro.lattice import Lattice4D
from repro.loops import average_plaquette
from repro.solvers import cg, cg_spmd
from repro.telemetry import (
    SNAPSHOT_SCHEMA,
    STATE,
    MetricsRegistry,
    TraceBuffer,
    counter_event,
    current_span_path,
    diff_snapshots,
    export_chrome_trace,
    full_reset,
    get_registry,
    get_trace_buffer,
    instant,
    load_snapshot,
    resolve_mode,
    save_chrome_trace,
    save_snapshot,
    set_mode,
    span,
    telemetry_mode,
)
from repro.util.flops import (
    PLAQUETTE_FLOPS_PER_SITE,
    WILSON_DSLASH_FLOPS_PER_SITE,
    cg_linalg_flops_per_iter,
)

DATA_DIR = Path(__file__).parent / "data"


def _nonzero_counters() -> dict:
    """The global registry's counters, without zeroed-in-place residue.

    Counter handles survive :func:`full_reset` by design (reset zeroes them
    in place so hot-path handles stay valid), so names registered by earlier
    tests linger at zero; content assertions care about recorded values.
    """
    return {k: v for k, v in get_registry().counters().items() if v}

#: Nominal per-site flop counts the operators charge (the goldens).
WILSON_PER_SITE = WILSON_DSLASH_FLOPS_PER_SITE + 8 * 12
DWF_PER_SITE = WILSON_DSLASH_FLOPS_PER_SITE + 4 * 12 + 2 * 12


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends at mode off with empty registry/buffer."""
    set_mode("off")
    full_reset()
    yield
    set_mode("off")
    full_reset()


@pytest.fixture(scope="module")
def lat44():
    return Lattice4D((4, 4, 4, 4))


@pytest.fixture(scope="module")
def gauge44(lat44):
    return GaugeField.warm(lat44, eps=0.3, rng=7)


# -- mode resolution and state ------------------------------------------------


class TestModeState:
    def test_resolve_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "trace")
        assert resolve_mode("counters") == "counters"

    def test_resolve_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "counters")
        assert resolve_mode() == "counters"
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert resolve_mode() == "off"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown telemetry mode"):
            resolve_mode("verbose")

    @pytest.mark.parametrize(
        "mode,active,counting,tracing",
        [("off", False, False, False), ("counters", True, True, False),
         ("trace", True, True, True)],
    )
    def test_state_flags(self, mode, active, counting, tracing):
        with telemetry_mode(mode):
            assert STATE.mode == mode
            assert STATE.active is active
            assert STATE.counting is counting
            assert STATE.tracing is tracing

    def test_set_mode_returns_previous(self):
        assert set_mode("counters") == "off"
        assert set_mode("off") == "counters"

    def test_context_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry_mode("trace"):
                raise RuntimeError("boom")
        assert STATE.mode == "off"


# -- the registry -------------------------------------------------------------


class TestRegistry:
    def test_counter_handles_survive_reset(self):
        reg = MetricsRegistry()
        handle = reg.counter("flops/x")
        handle.add(5)
        assert reg.get("flops/x") == 5
        reg.reset()
        assert reg.get("flops/x") == 0
        handle.add(2)  # the pre-reset handle still feeds the registry
        assert reg.get("flops/x") == 2

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1, 3, 100):
            reg.observe("iters", v)
        h = reg.histogram("iters")
        assert h.count == 3
        assert h.total == 104
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(104 / 3)

    def test_module_helpers_are_noops_when_off(self):
        telemetry.add("x", 5)
        telemetry.inc("y")
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        assert _nonzero_counters() == {}
        assert get_registry().gauge("g") is None
        assert get_registry().histogram("h").count == 0

    def test_module_helpers_record_in_counters_mode(self):
        with telemetry_mode("counters"):
            telemetry.add("x", 5)
            telemetry.inc("x")
            telemetry.set_gauge("g", 2.5)
            telemetry.observe("h", 4.0)
        reg = get_registry()
        assert reg.get("x") == 6
        assert reg.gauge("g") == 2.5
        assert reg.histogram("h").count == 1

    def test_snapshot_round_trip(self, tmp_path):
        with telemetry_mode("counters"):
            telemetry.add("flops/w", 1320)
            telemetry.set_gauge("res", 1e-9)
            telemetry.observe("it", 7)
        path = save_snapshot(tmp_path / "snap.json")
        snap = load_snapshot(path)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert {k: v for k, v in snap["counters"].items() if v} == {"flops/w": 1320}
        assert snap["gauges"] == {"res": 1e-9}
        assert snap["histograms"]["it"]["count"] == 1

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError, match="not a telemetry snapshot"):
            load_snapshot(path)

    def test_merge_prefixes_and_adds(self):
        reg = MetricsRegistry()
        reg.add("flops/w", 100)
        other = MetricsRegistry()
        other.add("flops/w", 50)
        other.set_gauge("res", 0.5)
        other.observe("it", 3)
        reg.merge(other.snapshot(), prefix="rank1/")
        reg.merge(other.snapshot())
        assert reg.get("rank1/flops/w") == 50
        assert reg.get("flops/w") == 150
        assert reg.gauge("rank1/res") == 0.5
        assert reg.histogram("it").count == 1


# -- kernel-selection gauges --------------------------------------------------


def test_kernel_selection_gauges(gauge44):
    with telemetry_mode("counters"):
        WilsonDirac(gauge44, 0.1, kernel="reference")
        DomainWallDirac(gauge44, mf=0.04, ls=4, kernel="reference")
        EvenOddWilson(gauge44, 0.1, kernel="fused")
        gauges = telemetry.snapshot()["gauges"]
    assert gauges == {
        "kernel/dslash_wilson/backend/reference": 1.0,
        "kernel/dslash_dwf/backend/reference": 1.0,
        "kernel/dslash_eo/backend/fused": 1.0,
    }


def test_kernel_selection_gauges_off_by_default(gauge44):
    """No telemetry mode active -> construction records nothing."""
    WilsonDirac(gauge44, 0.1)
    assert telemetry.snapshot()["gauges"] == {}


# -- golden counter exactness -------------------------------------------------


class TestGoldenCounters:
    @pytest.mark.parametrize("kernel", ["reference", "fused"])
    def test_wilson_flop_golden(self, kernel, lat44, gauge44):
        op = WilsonDirac(gauge44, mass=0.1, kernel=kernel)
        psi = random_fermion(lat44, rng=3)
        out = np.empty_like(psi)
        n, volume = 5, lat44.volume
        with telemetry_mode("counters"):
            for _ in range(n):
                op(psi, out=out)
        reg = get_registry()
        assert reg.get("applies/dslash_wilson") == n
        assert reg.get("flops/dslash_wilson") == n * WILSON_PER_SITE * volume
        assert reg.get("sites/dslash_wilson") == n * volume

    @pytest.mark.parametrize("kernel", ["reference", "fused"])
    def test_dwf_flop_golden(self, kernel, lat44, gauge44):
        ls = 4
        op = DomainWallDirac(gauge44, mf=0.04, ls=ls, kernel=kernel)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=op.field_shape()) + 1j * rng.normal(size=op.field_shape())
        out = np.empty_like(psi)
        n, volume = 3, lat44.volume
        with telemetry_mode("counters"):
            for _ in range(n):
                op(psi, out=out)
        reg = get_registry()
        assert reg.get("applies/dslash_dwf") == n
        assert reg.get("flops/dslash_dwf") == n * DWF_PER_SITE * volume * ls
        assert reg.get("sites/dslash_dwf") == n * volume * ls

    def test_plaquette_flop_golden(self, lat44, gauge44):
        with telemetry_mode("counters"):
            average_plaquette(gauge44.u)
        reg = get_registry()
        assert reg.get("applies/plaquette") == 1
        assert reg.get("flops/plaquette") == PLAQUETTE_FLOPS_PER_SITE * lat44.volume
        assert reg.get("sites/plaquette") == lat44.volume

    def test_cg_iteration_golden(self, lat44, gauge44):
        dirac = WilsonDirac(gauge44, mass=0.2)
        nop = dirac.normal_op()
        rhs = dirac.apply_dagger(random_fermion(lat44, rng=11))
        with telemetry_mode("counters"):
            res = cg(nop, rhs, tol=1e-8, max_iter=2000, guard="off")
        assert res.converged
        reg = get_registry()
        assert reg.get("solver/cg/solves") == 1
        assert reg.get("solver/cg/iterations") == res.iterations
        assert reg.get("solver/cg/linalg_flops") == (
            res.iterations * cg_linalg_flops_per_iter(2 * rhs.size)
        )
        # One normal-op application per iteration, counted once: the inner
        # Wilson applies bypass __call__, so they must NOT double-count.
        assert reg.get("applies/normal_dslash_wilson") == res.iterations
        assert reg.get("applies/dslash_wilson") == 0
        assert reg.get("flops/normal_dslash_wilson") == (
            res.iterations * 2 * WILSON_PER_SITE * lat44.volume
        )
        # Residual bookkeeping rides the registry too.
        assert reg.gauge("solver/cg/last_residual") == res.residual
        assert reg.histogram("solver/cg/iterations_per_solve").count == 1

    def test_cg_counts_the_reals_of_real_columns(self, lat44, gauge44):
        """A Schur CG runs on even-site columns, real planes of 12 V/2 sites x 2
        reals: ``linalg_flops`` counts those reals, not twice their number."""
        eo = EvenOddWilson(gauge44, mass=0.2)
        rhs = eo.even_planes(random_fermion(lat44, rng=12))
        with telemetry_mode("counters"):
            res = cg(eo.schur_operator().normal_op(), rhs, tol=1e-8, guard="off")
        assert res.converged and rhs.dtype == np.float64
        assert rhs.size == 12 * lat44.volume
        assert get_registry().get("solver/cg/linalg_flops") == (
            res.iterations * cg_linalg_flops_per_iter(rhs.size)
        )

    def test_matrix_operator_label_fallback(self):
        op = MatrixOperator(np.eye(4, dtype=complex))
        with telemetry_mode("counters"):
            op(np.ones(4, dtype=complex))
        assert get_registry().get("applies/matrixoperator") == 1

    def test_guarded_applies_count_under_wrapped_label(self, lat44, gauge44):
        op = WilsonDirac(gauge44, mass=0.1)
        guarded = GuardedOperator(op, policy="detect")
        psi = random_fermion(lat44, rng=13)
        with telemetry_mode("counters"):
            guarded(psi)
            guarded.probe_now(psi.shape, psi.dtype)
        reg = get_registry()
        assert reg.get("applies/dslash_wilson") == 1
        assert reg.get("flops/dslash_wilson") == WILSON_PER_SITE * lat44.volume
        assert reg.get("guard/probes") >= 1


LATTICE_SPMD = Lattice4D((4, 4, 6, 4))


class TestGoldenCommCounters:
    @pytest.fixture(scope="class")
    def sgauge(self):
        return GaugeField.hot(LATTICE_SPMD, rng=5)

    @pytest.fixture(scope="class")
    def spsi(self):
        return random_fermion(LATTICE_SPMD, rng=9)

    def _apply_counters(self, comm, sgauge, spsi) -> dict:
        # Construction distributes the gauge field (its own halo exchange);
        # reset afterwards so the goldens price exactly one Dslash apply.
        op = DecomposedWilsonDirac(sgauge, 0.1, comm)
        full_reset()
        op(spsi)
        return {
            k: v
            for k, v in get_registry().counters().items()
            if v and not k.startswith("rank")
        }

    @pytest.mark.parametrize("dims", [(2, 1, 1, 1), (1, 1, 2, 2)])
    def test_halo_counters_exact_and_backend_identical(self, dims, sgauge, spsi):
        grid = RankGrid(dims)
        with telemetry_mode("counters"):
            virtual = self._apply_counters(VirtualComm(grid), sgauge, spsi)
            with ShmComm(grid) as comm:
                shared = self._apply_counters(comm, sgauge, spsi)
                full_reset()  # keep the close-time gather out of other tests
        assert virtual == shared
        # Analytic halo golden: one ghost-face pair per partitioned axis per
        # rank; a face of a rank's local fermion block is its local volume
        # over its local extent along mu, at 4x3 complex128 = 192 bytes/site.
        local_volume = LATTICE_SPMD.volume // grid.nranks
        messages = 0
        nbytes = 0
        for mu, ranks_mu in enumerate(grid.dims):
            if ranks_mu < 2:
                continue
            face_sites = local_volume // (LATTICE_SPMD.shape[mu] // ranks_mu)
            messages += 2 * grid.nranks
            nbytes += 2 * grid.nranks * face_sites * 192
        assert virtual["comm/halo_messages"] == messages
        assert virtual["comm/halo_bytes"] == nbytes

    def test_cg_spmd_allreduce_golden(self, sgauge, spsi):
        grid = RankGrid((2, 1, 1, 1))
        op = DecomposedWilsonDirac(sgauge, 0.3, VirtualComm(grid))
        with telemetry_mode("counters"):
            res = cg_spmd(op, spsi, tol=1e-6, max_iter=2000, guard="off")
        reg = get_registry()
        # |b|^2 and the initial residual cost one allreduce each, every
        # iteration costs two (pAp and the new r2), convergence check one.
        assert reg.get("comm/collectives") == 3 + 2 * res.iterations
        assert reg.get("solver/cg_spmd/iterations") == res.iterations


# -- spans and tracing --------------------------------------------------------


class TestSpans:
    def test_nesting_path(self):
        with telemetry_mode("trace"):
            assert current_span_path() == ""
            with span("outer"):
                with span("inner"):
                    assert current_span_path() == "outer/inner"
                assert current_span_path() == "outer"
        assert current_span_path() == ""

    def test_exception_safety_pops_and_stamps_error(self):
        with telemetry_mode("trace"):
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("failing"):
                        raise ValueError("boom")
            assert current_span_path() == ""
        events = {e["name"]: e for e in get_trace_buffer().events}
        # The exception unwinds through both spans, so both carry the stamp.
        assert events["failing"]["args"]["error"] == "ValueError"
        assert events["outer"]["args"]["error"] == "ValueError"

    def test_counters_mode_accumulates_time_and_calls(self):
        with telemetry_mode("counters"):
            for _ in range(3):
                with span("work"):
                    pass
        reg = get_registry()
        assert reg.get("calls/work") == 3
        assert reg.get("time/work") > 0.0
        assert get_trace_buffer().events == []  # counters mode: no events

    def test_off_mode_records_nothing(self):
        with span("quiet") as s:
            pass
        assert s.elapsed == 0.0
        assert _nonzero_counters() == {}
        assert get_trace_buffer().events == []

    def test_always_time_measures_even_off(self):
        with span("timed", always_time=True) as s:
            sum(range(100))
        assert s.elapsed > 0.0
        assert _nonzero_counters() == {}

    def test_instant_and_counter_event_trace_only(self):
        with telemetry_mode("counters"):
            instant("halo", cat="comm", bytes=128)
            counter_event("cg/residual", residual=0.5)
        assert get_trace_buffer().events == []
        with telemetry_mode("trace"):
            instant("halo", cat="comm", bytes=128)
            counter_event("cg/residual", residual=0.5)
        phases = [e["ph"] for e in get_trace_buffer().events]
        assert phases == ["i", "C"]

    def test_buffer_cap_drops_and_counts(self):
        buf = TraceBuffer(max_events=2)
        for i in range(5):
            buf.add_instant(f"e{i}")
        assert len(buf.events) == 2
        assert buf.dropped == 3
        assert export_chrome_trace(buf)["otherData"] == {"dropped_events": 3}

    def test_nested_span_interval_containment(self):
        with telemetry_mode("trace"):
            with span("outer"):
                with span("inner"):
                    sum(range(1000))
        events = {e["name"]: e for e in get_trace_buffer().events}
        outer, inner = events["outer"], events["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6


def _validate_chrome_trace(doc: dict) -> None:
    """Assert ``doc`` is a loadable Chrome trace-event JSON document."""
    assert isinstance(doc, dict)
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    assert events[0]["ph"] == "M"  # leading process_name metadata
    assert events[0]["args"]["name"]
    for ev in events:
        assert isinstance(ev["name"], str) and ev["name"]
        assert ev["ph"] in ("M", "X", "i", "C")
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        if ev["ph"] != "M":
            assert isinstance(ev["ts"], (int, float))
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0.0
        if ev["ph"] == "i":
            assert ev["s"] in ("t", "p", "g")
        if ev["ph"] == "C":
            assert all(
                isinstance(v, (int, float)) for v in ev["args"].values()
            )
        if "args" in ev:
            assert isinstance(ev["args"], dict)
    json.loads(json.dumps(doc))  # JSON-serialisable end to end


class TestTraceSchema:
    def test_workload_trace_is_valid_and_round_trips(self, tmp_path, lat44, gauge44):
        dirac = WilsonDirac(gauge44, mass=0.2)
        rhs = dirac.apply_dagger(random_fermion(lat44, rng=21))
        with telemetry_mode("trace"):
            cg(dirac.normal_op(), rhs, tol=1e-6, max_iter=500, guard="off")
        doc = export_chrome_trace()
        _validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"cg", "normal_dslash_wilson", "cg/residual"} <= names
        path = save_chrome_trace(tmp_path / "run.trace.json")
        assert json.loads(path.read_text()) == json.loads(json.dumps(doc))

    def test_comm_instants_in_trace(self):
        gauge = GaugeField.hot(LATTICE_SPMD, rng=5)
        psi = random_fermion(LATTICE_SPMD, rng=9)
        with telemetry_mode("trace"):
            DecomposedWilsonDirac(gauge, 0.1, VirtualComm(RankGrid((2, 1, 1, 1))))(psi)
        doc = export_chrome_trace()
        _validate_chrome_trace(doc)
        halos = [e for e in doc["traceEvents"] if e["name"] == "halo"]
        assert halos and all(e["ph"] == "i" and e["cat"] == "comm" for e in halos)
        assert all(e["args"]["bytes"] > 0 for e in halos)

    def test_residual_counter_series_length(self, lat44, gauge44):
        dirac = WilsonDirac(gauge44, mass=0.2)
        rhs = dirac.apply_dagger(random_fermion(lat44, rng=23))
        with telemetry_mode("trace"):
            res = cg(dirac.normal_op(), rhs, tol=1e-6, max_iter=500, guard="off")
        series = [
            e for e in get_trace_buffer().events if e["name"] == "cg/residual"
        ]
        assert len(series) == len(res.history) - 1  # one per iteration
        assert [e["args"]["residual"] for e in series] == res.history[1:]

    def test_checked_in_perfetto_fixture_is_valid(self):
        doc = json.loads((DATA_DIR / "perfetto_fixture.trace.json").read_text())
        _validate_chrome_trace(doc)
        assert doc["displayTimeUnit"] == "ms"


# -- bit-parity: telemetry must never touch the physics -----------------------


class TestBitParity:
    def test_cg_identical_across_modes(self, lat44, gauge44):
        dirac = WilsonDirac(gauge44, mass=0.2)
        nop = dirac.normal_op()
        rhs = dirac.apply_dagger(random_fermion(lat44, rng=31))
        results = {}
        for mode in ("off", "counters", "trace"):
            with telemetry_mode(mode):
                results[mode] = cg(nop, rhs, tol=1e-8, max_iter=2000, guard="off")
            full_reset()
        base = results["off"]
        for mode in ("counters", "trace"):
            res = results[mode]
            assert np.array_equal(res.x, base.x), mode
            assert res.iterations == base.iterations
            assert res.history == base.history

    def test_campaign_ledger_identical_across_modes(self, tmp_path):
        from repro.campaign import CampaignConfig, HMCCampaign

        def run(mode: str, name: str) -> tuple[str, Path]:
            config = CampaignConfig(
                shape=(2, 2, 2, 2), beta=5.5, n_trajectories=6,
                n_steps=2, checkpoint_interval=2, seed=42,
            )
            directory = tmp_path / name
            with telemetry_mode(mode):
                HMCCampaign(directory, config).run()
            full_reset()
            return (directory / "ledger.jsonl").read_text(), directory

        base_text, base_dir = run("off", "off")
        for mode in ("counters", "trace"):
            text, directory = run(mode, mode)
            assert text == base_text, f"{mode} perturbed the ledger"
            metrics = directory / "metrics.jsonl"
            assert metrics.exists()
            rows = [json.loads(line) for line in metrics.read_text().splitlines()]
            assert [r["step"] for r in rows] == list(range(6))
            assert all(r["kind"] == "metrics" for r in rows)
            assert all(r["counters"] for r in rows)  # non-empty deltas
        assert not (base_dir / "metrics.jsonl").exists()  # off journals nothing

    def test_dynamical_trajectory_identical_across_modes(self):
        """The spans inside the pseudofermion action observe, nothing more:
        same dH, same links; one force-grade solve span and one bilinear span
        per force, one continuation span for the final energy (the initial
        one is the heatbath's |eta_e|^2)."""
        from repro.hmc import HMC, TwoFlavorWilsonAction, WilsonGaugeAction

        def run(mode: str):
            gauge = GaugeField.warm(Lattice4D((2, 2, 2, 2)), eps=0.3, rng=43)
            hmc = HMC(
                [WilsonGaugeAction(5.6), TwoFlavorWilsonAction(0.5)],
                step_size=0.0625, n_steps=8, integrator="omelyan", rng=44,
            )
            with telemetry_mode(mode):
                result = hmc.trajectory(gauge)
            counters = _nonzero_counters()
            names = [e["name"] for e in get_trace_buffer().events]
            full_reset()
            return result, gauge.u, counters, names

        base, u_base, counters, names = run("off")
        assert not counters and not names
        for mode in ("counters", "trace"):
            result, u, counters, names = run(mode)
            assert result == base, mode
            assert np.array_equal(u, u_base), mode
            assert counters["calls/pf_solve"] == counters["calls/pf_bilinear"] == 17
            assert counters["calls/pf_refine"] == 1
            assert counters["calls/cg"] == 18
            assert 0.0 < counters["time/cg"] <= (
                counters["time/pf_solve"] + counters["time/pf_refine"]
            )
            assert [names.count(n) for n in ("pf_solve", "pf_refine", "pf_bilinear")] == (
                [17, 1, 17] if mode == "trace" else [0, 0, 0]
            )


# -- per-rank aggregation over ShmComm ----------------------------------------


class TestShmGather:
    def test_worker_metrics_gathered_with_rank_prefix(self):
        gauge = GaugeField.hot(LATTICE_SPMD, rng=5)
        psi = random_fermion(LATTICE_SPMD, rng=9)
        grid = RankGrid((2, 1, 1, 1))
        with telemetry_mode("counters"):
            telemetry.add("master_only", 1)
            with ShmComm(grid) as comm:
                DecomposedWilsonDirac(gauge, 0.1, comm)(psi)
                snaps = comm.gather_worker_metrics()
                assert set(snaps) == {0, 1}
                for snap in snaps.values():
                    counters = snap["counters"]
                    # Fork-inherited values were reset in the worker.
                    assert counters.get("master_only", 0) == 0
                    assert counters.get("commands/dslash", 0) >= 1
                    # The gather itself must not self-count.
                    assert "commands/telemetry" not in counters
            # close() re-gathers into the master registry, rank-prefixed.
            reg = get_registry()
            for r in range(grid.nranks):
                assert reg.get(f"rank{r}/commands/dslash") >= 1

    def test_gather_skipped_when_off(self):
        grid = RankGrid((2, 1, 1, 1))
        with ShmComm(grid) as comm:
            comm.ping()
        assert _nonzero_counters() == {}


# -- snapshot diffing and the perf_report CLI ---------------------------------


class TestSnapshotDiff:
    def _snap(self, counters: dict) -> dict:
        return {"schema": SNAPSHOT_SCHEMA, "counters": counters}

    def test_identical_snapshots_clean(self):
        snap = self._snap({"flops/w": 100, "time/cg": 1.23})
        assert diff_snapshots(snap, snap) == []

    def test_changed_counter_reported(self):
        regs = diff_snapshots(
            self._snap({"flops/w": 110}), self._snap({"flops/w": 100})
        )
        assert len(regs) == 1
        assert regs[0].name == "flops/w"
        assert regs[0].rel_change == pytest.approx(0.1)
        assert "flops/w" in regs[0].describe()

    def test_missing_counter_reported(self):
        regs = diff_snapshots(self._snap({}), self._snap({"flops/w": 100}))
        assert len(regs) == 1
        assert regs[0].current is None

    def test_rtol_absorbs_small_drift(self):
        current = self._snap({"solver/cg/iterations": 104})
        baseline = self._snap({"solver/cg/iterations": 100})
        assert diff_snapshots(current, baseline, rtol=0.05) == []
        assert len(diff_snapshots(current, baseline, rtol=0.01)) == 1

    def test_time_counters_ignored(self):
        regs = diff_snapshots(
            self._snap({"time/cg": 9.0}), self._snap({"time/cg": 1.0})
        )
        assert regs == []


class TestPerfReportCLI:
    def test_capture_is_deterministic_and_self_diffs_clean(self, tmp_path, capsys):
        from repro.tools.perf_report import capture_snapshot, main

        first = capture_snapshot()
        second = capture_snapshot()
        assert first["counters"] == second["counters"]
        assert first["counters"]  # non-trivial workload
        assert not any(
            k.startswith(("time/", "calls/")) for k in first["counters"]
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_snapshot(a, first)
        save_snapshot(b, second)
        assert main(["diff", str(a), "--baseline", str(b)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_diff_exit_codes(self, tmp_path, capsys):
        from repro.tools.perf_report import main

        good = {"schema": SNAPSHOT_SCHEMA, "counters": {"flops/w": 100}}
        bad = {"schema": SNAPSHOT_SCHEMA, "counters": {"flops/w": 150}}
        a, b = tmp_path / "cur.json", tmp_path / "base.json"
        save_snapshot(a, bad)
        save_snapshot(b, good)
        assert main(["diff", str(a), "--baseline", str(b)]) == 1
        assert "+50.00%" in capsys.readouterr().out
        assert main(["diff", str(tmp_path / "nope.json"), "--baseline", str(b)]) == 2

    def test_committed_baseline_reproduces(self):
        from repro.tools.perf_report import capture_snapshot

        baseline = load_snapshot(DATA_DIR / "perf_baseline.json")
        regressions = diff_snapshots(capture_snapshot(), baseline, rtol=0.1)
        assert regressions == [], [r.describe() for r in regressions]


class TestRunCampaignMetricsCLI:
    def test_run_with_telemetry_then_status_metrics(self, tmp_path, capsys):
        from repro.tools.run_campaign import main

        directory = tmp_path / "camp"
        assert main([
            "run", "--dir", str(directory), "--shape", "2", "2", "2", "2",
            "--beta", "5.5", "--trajectories", "4", "--checkpoint-interval", "2",
            "--telemetry", "counters", "--quiet",
        ]) == 0
        full_reset()
        assert (directory / "metrics.jsonl").exists()
        assert main(["status", "--dir", str(directory), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics.jsonl: 4 trajectory row(s)" in out
        assert "hmc/trajectories" in out


# -- overhead (slow; also the E18 CI gate) ------------------------------------


@pytest.mark.slow
def test_telemetry_overhead_within_bounds():
    from repro.bench.e18_telemetry import e18_telemetry_overhead

    _, rows = e18_telemetry_overhead()
    by = {(r["path"], r["mode"]): r for r in rows}
    assert by[("dispatch-null", "off")]["overhead_pct"] < 0.5
    assert by[("dispatch-null", "counters")]["overhead_pct"] < 3.0
    assert by[("dslash-fused", "off")]["overhead_pct"] < 2.0
    assert by[("dslash-fused", "counters")]["overhead_pct"] < 3.0
    assert by[("cg-normal", "counters")]["overhead_pct"] < 3.0
    assert len({r["iterations"] for r in rows if r["path"] == "cg-normal"}) == 1
