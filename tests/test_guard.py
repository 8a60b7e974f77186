"""Silent-data-corruption guards: taxonomy, gauge/solver/ABFT guards, campaigns.

The headline contract under test: one silently flipped gauge-link bit in a
campaign run with ``REPRO_GUARD=heal`` is detected, journaled to
``faults.jsonl``, rolled back, and the finished ledger is bit-for-bit
identical to an unfaulted run — while ``REPRO_GUARD=off`` lets the same
flip propagate into different physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    FaultPlan,
    FaultedOperator,
    HMCCampaign,
    MeasurementCampaign,
    flip_bit,
)
from repro.dirac import WilsonDirac
from repro.fields import GaugeField, norm, random_fermion
from repro.guard import (
    GUARD_ENV_VAR,
    GaugeGuardReport,
    GuardPolicy,
    GuardedOperator,
    LinkChecksum,
    NumericalFault,
    SDCDetected,
    SolverStagnation,
    StagnationDetector,
    UnitarityViolation,
    check_gauge,
    heal_gauge,
    inspect_gauge,
    linearity_probe,
    require_finite,
    resolve_guard_level,
    resolve_policy,
)
from repro.io import load_gauge, save_gauge
from repro.lattice import Lattice4D
from repro.solvers import (
    bicgstab,
    block_cg,
    cg,
    cg_spmd,
    gcr,
    mixed_precision_cg,
    multishift_cg,
    solve_wilson_batch,
)

TINY = (2, 2, 2, 2)
SMALL = (4, 4, 4, 4)


def small_system(mass: float = 0.3, seed: int = 5):
    """A well-conditioned Wilson normal-equations system on 4^4."""
    lat = Lattice4D(SMALL)
    gauge = GaugeField.warm(lat, eps=0.3, rng=seed)
    dirac = WilsonDirac(gauge, mass)
    b = random_fermion(lat, rng=seed + 1)
    return dirac.normal_op(), dirac.apply_dagger(b), dirac


class PoisonAt(FaultedOperator):
    """Deterministic NaN injection: poison the ``at_apply``-th output.

    Unlike a bit flip (whose effect depends on the word's exponent bits),
    a NaN is guaranteed non-finite — the right fault for testing the
    solvers' finiteness screens.
    """

    def _maybe_corrupt(self, out):
        self._applications += 1
        if not self.fired and self._applications == self.at_apply:
            self.fired = True
            out.reshape(-1)[0] = np.nan
        return out


# -- error taxonomy -----------------------------------------------------------


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(SDCDetected, NumericalFault)
        assert issubclass(UnitarityViolation, SDCDetected)
        assert issubclass(SolverStagnation, NumericalFault)
        # run_resilient retries RuntimeErrors — SDC must be one of them so
        # the supervisor's rollback path heals even in detect mode.
        assert issubclass(NumericalFault, RuntimeError)

    def test_context_attrs_in_message(self):
        e = NumericalFault(
            "NaN in r2", solver="cg", iteration=17, last_residual=3.5e-4
        )
        assert e.solver == "cg"
        assert e.iteration == 17
        assert e.last_residual == 3.5e-4
        assert "cg" in str(e) and "17" in str(e) and "3.500e-04" in str(e)

    def test_require_finite(self):
        require_finite(1.0, "r2", solver="cg", iteration=3)
        with pytest.raises(NumericalFault) as err:
            require_finite(float("nan"), "r2", solver="cg", iteration=3,
                           last_residual=1e-2)
        assert err.value.iteration == 3
        assert err.value.last_residual == 1e-2


# -- policy resolution --------------------------------------------------------


class TestPolicy:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
        policy = resolve_policy(None)
        assert policy.level == "off"
        assert not policy.enabled and not policy.heal

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        assert resolve_guard_level() == "heal"
        assert resolve_policy(None).heal

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        assert resolve_guard_level("detect") == "detect"
        assert resolve_policy("detect").level == "detect"

    def test_unknown_level_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_guard_level("paranoid")
        monkeypatch.setenv(GUARD_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_guard_level()
        with pytest.raises(ValueError):
            GuardPolicy(level="bogus")

    def test_policy_passthrough_and_with_level(self):
        p = GuardPolicy(level="detect", unitarity_tol=1e-9)
        assert resolve_policy(p) is p
        h = p.with_level("heal")
        assert h.heal and h.unitarity_tol == 1e-9


# -- gauge guards -------------------------------------------------------------


class TestGaugeGuards:
    def test_clean_gauge_passes_every_level(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        for level in ("off", "detect", "heal"):
            report = check_gauge(u, GuardPolicy(level=level), context="test")
            assert report.ok and report.healed_links == 0

    def test_flipped_link_detected_and_located(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        flip_bit(u, 7)
        report = inspect_gauge(u, GuardPolicy(level="detect"), context="test")
        assert not report.ok
        assert report.n_bad_links == 1
        assert report.unitarity_max > 1e-6
        with pytest.raises(UnitarityViolation):
            check_gauge(u, GuardPolicy(level="detect"), context="test")

    def test_off_is_blind(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        flip_bit(u, 7)
        report = check_gauge(u, GuardPolicy(level="off"), context="test")
        assert report.ok  # trivially — off means no inspection

    @pytest.mark.parametrize("bit", [52, 62])
    def test_heal_reprojects_flipped_link(self, bit):
        clean = GaugeField.hot(Lattice4D(TINY), rng=1).u
        u = clean.copy()
        flip_bit(u, 7, bit=bit)
        report = check_gauge(u, GuardPolicy(level="heal"), context="test")
        assert report.ok and report.healed_links == 1
        from repro.su3 import unitarity_violation

        assert unitarity_violation(u) < 1e-12

    def test_heal_replaces_nan_link_with_identity(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        u[0, 0, 0, 0, 0] = np.nan  # whole 3x3 link poisoned
        report = check_gauge(u, GuardPolicy(level="heal"), context="test")
        assert report.ok and report.healed_links == 1
        assert np.all(np.isfinite(u))

    def test_nan_link_detected_not_masked(self):
        # NaN > tol is False — the guard must not let NaN slip through the
        # comparison.
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        u[1, 1, 1, 1, 1] = np.nan
        report = inspect_gauge(u, GuardPolicy(level="detect"), context="test")
        assert not report.ok and report.n_bad_links == 1

    def test_unitary_but_non_su3_link_trips_plaquette_bound(self):
        # -identity is perfectly unitary yet not SU(3); neighbouring
        # plaquettes drop to -1, below the SU(3) floor of -1/2.  Detection
        # works through the plaquette ring; reprojection cannot restore a
        # link the unitarity ring never flagged, so heal must fail loudly
        # rather than return corrupt data.
        u = GaugeField.cold(Lattice4D(TINY)).u
        u[0, 0, 0, 0, 0] = -np.eye(3)
        with pytest.raises(SDCDetected):
            check_gauge(u, GuardPolicy(level="detect"), context="test")
        with pytest.raises(SDCDetected):
            check_gauge(u, GuardPolicy(level="heal"), context="test")

    def test_heal_gauge_returns_count(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=2).u
        flip_bit(u, 3)
        report = inspect_gauge(u, GuardPolicy(level="heal"), context="test")
        assert heal_gauge(u, report.bad_link_indices) == 1

    def test_report_record_is_json_ready(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=1).u
        report = inspect_gauge(u, GuardPolicy(level="detect"), context="boundary")
        record = report.as_record()
        import json

        json.dumps(record)
        assert record["context"] == "boundary"
        assert isinstance(report, GaugeGuardReport)


# -- guarded config I/O -------------------------------------------------------


class TestLoadGaugeGuard:
    def _flipped_config(self, tmp_path):
        gauge = GaugeField.hot(Lattice4D(TINY), rng=3)
        flip_bit(gauge.u, 11)
        path = tmp_path / "cfg.npz"
        save_gauge(path, gauge)  # CRC stamped over the already-flipped links
        return path

    def test_detect_raises_on_corrupt_links(self, tmp_path):
        path = self._flipped_config(tmp_path)
        load_gauge(path)  # byte-level CRC alone is happy
        with pytest.raises(UnitarityViolation):
            load_gauge(path, guard="detect")

    def test_heal_repairs_and_annotates(self, tmp_path):
        path = self._flipped_config(tmp_path)
        gauge, meta = load_gauge(path, guard="heal")
        assert meta["healed_links"] == 1
        assert gauge.unitarity_violation() < 1e-12


# -- solver NaN screens (all levels, including off) ---------------------------


class TestSolverFailFast:
    """A NaN right-hand side or a poisoned operator stream must raise
    :class:`NumericalFault` promptly at *every* guard level — never loop
    silently to ``max_iter``."""

    def test_cg_nan_rhs(self):
        nop, rhs, _ = small_system()
        rhs = rhs.copy()
        rhs[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalFault) as err:
            cg(nop, rhs, max_iter=2000)
        assert err.value.iteration == 0

    def test_bicgstab_nan_rhs(self):
        _, _, dirac = small_system()
        b = random_fermion(dirac.lattice, rng=9)
        b[0, 0, 0, 0, 0, 0] = np.inf
        with pytest.raises(NumericalFault):
            bicgstab(dirac, b, max_iter=2000)

    def test_gcr_nan_rhs(self):
        _, _, dirac = small_system()
        b = random_fermion(dirac.lattice, rng=9)
        b[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalFault):
            gcr(dirac, b, max_iter=2000)

    def test_multishift_nan_rhs(self):
        nop, rhs, _ = small_system()
        rhs = rhs.copy()
        rhs[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalFault):
            multishift_cg(nop, rhs, shifts=[0.0, 0.1], max_iter=2000)

    def test_mixed_nan_rhs(self):
        nop, rhs, dirac = small_system()
        nop32 = dirac.astype(np.complex64).normal_op()
        rhs = rhs.copy()
        rhs[0, 0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NumericalFault):
            mixed_precision_cg(nop, nop32, rhs, max_inner=2000)

    def test_cg_nan_mid_solve_fails_fast_with_context(self):
        # A NaN appearing in the operator stream mid-solve (poisoned
        # scratch) must stop unguarded CG at that iteration, not at
        # max_iter, and report where it was and the last finite residual.
        nop, rhs, _ = small_system()
        faulted = PoisonAt(nop, at_apply=10)
        with pytest.raises(NumericalFault) as err:
            cg(faulted, rhs, max_iter=2000, guard="off")
        assert err.value.iteration is not None and 0 < err.value.iteration < 20
        assert err.value.last_residual is not None
        assert np.isfinite(err.value.last_residual)


# -- defensive CG: the silent low-bit flip ------------------------------------


class TestDefensiveCG:
    """One silent bit-52 flip mid-stream: the recurrence happily 'converges'
    to a wrong answer; only the true-residual replay can see it."""

    POLICY = dict(true_residual_interval=8, residual_drift_tol=10.0)

    def _solve(self, level):
        nop, rhs, _ = small_system()
        faulted = FaultedOperator(nop, at_apply=15, flat_index=3, bit=52)
        policy = GuardPolicy(level=level, **self.POLICY)
        res = cg(faulted, rhs, tol=1e-8, max_iter=2000, guard=policy)
        true_rel = float(norm(rhs - nop(res.x)) / norm(rhs))
        return res, true_rel

    def test_off_converges_to_wrong_answer(self):
        res, true_rel = self._solve("off")
        assert res.converged  # the recurrence can't see it...
        assert true_rel > 100 * 1e-8  # ...but the answer is silently wrong

    def test_detect_raises(self):
        nop, rhs, _ = small_system()
        faulted = FaultedOperator(nop, at_apply=15, flat_index=3, bit=52)
        policy = GuardPolicy(level="detect", **self.POLICY)
        with pytest.raises(SDCDetected):
            cg(faulted, rhs, tol=1e-8, max_iter=2000, guard=policy)

    def test_heal_recovers_true_convergence(self):
        res, true_rel = self._solve("heal")
        assert res.converged
        assert true_rel < 1e-7
        assert any(e for e in res.guard_events)

    def test_clean_run_identical_at_every_level(self):
        # Guard placement rule: verify at trust boundaries, never perturb
        # the recurrence.  A clean solve takes the same iterates bit for
        # bit whether guarded or not.
        nop, rhs, _ = small_system()
        base = cg(nop, rhs, tol=1e-8, max_iter=2000, guard="off")
        for level in ("detect", "heal"):
            policy = GuardPolicy(level=level, **self.POLICY)
            res = cg(nop, rhs, tol=1e-8, max_iter=2000, guard=policy)
            assert res.iterations == base.iterations
            assert np.array_equal(res.x, base.x)
            assert res.guard_events == []


class TestBatchedGuard:
    """``REPRO_GUARD`` reaches the batched solves: every column runs cg's
    guarded recurrence, so a flip in one column is caught (detect) or
    repaired (heal) there and the other column keeps its clean bytes."""

    def _block(self):
        nop, rhs, dirac = small_system()
        other = dirac.apply_dagger(random_fermion(dirac.lattice, rng=11))
        return nop, np.stack([rhs, other]), dirac

    def test_block_cg_detect_raises(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "detect")
        nop, B, _ = self._block()
        with pytest.raises(SDCDetected):
            block_cg(FaultedOperator(nop, at_apply=15, bit=52), B, tol=1e-8)

    def test_block_cg_heal(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        nop, B, _ = self._block()
        clean = block_cg(nop, B, tol=1e-8)
        res = block_cg(FaultedOperator(nop, at_apply=15, bit=52), B, tol=1e-8)
        assert res[0].converged
        assert norm(B[0] - nop(res[0].x)) / norm(B[0]) < 1e-8
        assert [e["kind"] for e in res[0].guard_events] == ["residual_drift"]
        assert res[1].x.tobytes() == clean[1].x.tobytes()
        assert res[1].guard_events == []

    def test_solve_wilson_batch(self, monkeypatch):
        _, _, dirac = self._block()
        S = np.stack([random_fermion(dirac.lattice, rng=20 + i) for i in range(2)])
        monkeypatch.setenv(GUARD_ENV_VAR, "detect")
        with pytest.raises(SDCDetected):
            solve_wilson_batch(FaultedOperator(dirac, at_apply=21, bit=52), S, tol=1e-8)
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        clean = solve_wilson_batch(dirac, S, tol=1e-8)
        res = solve_wilson_batch(FaultedOperator(dirac, at_apply=21, bit=52), S, tol=1e-8)
        assert res[0].converged and res[0].residual <= 1e-8
        assert [e["kind"] for e in res[0].guard_events] == ["residual_drift"]
        assert res[1].x.tobytes() == clean[1].x.tobytes()


class TestMultishiftGuard:
    """Multishift's seed runs cg's guarded recurrence: a NaN mid-solve fails
    fast with context (off, detect) or heals (heal), and the verification
    holds every shift to ``tol`` against its own ``A + sigma``."""

    SHIFTS = [0.05, 0.4, 3.0]

    def _check_every_shift(self, nop, rhs, results, tol):
        for sigma, res in zip(self.SHIFTS, results):
            true = float(norm(rhs - nop(res.x) - sigma * res.x) / norm(rhs))
            assert res.converged and res.residual <= tol, sigma
            assert true == pytest.approx(res.residual, rel=1e-6), sigma

    @pytest.mark.parametrize("level", ["off", "detect"])
    def test_nan_mid_solve_fails_fast_with_context(self, monkeypatch, level):
        monkeypatch.setenv(GUARD_ENV_VAR, level)
        nop, rhs, _ = small_system()
        with pytest.raises(NumericalFault) as err:
            multishift_cg(PoisonAt(nop, at_apply=10), rhs, self.SHIFTS, tol=1e-8)
        assert err.value.solver == "multishift_cg"
        assert err.value.iteration is not None and 0 < err.value.iteration < 20
        assert np.isfinite(err.value.last_residual)

    def test_nan_mid_solve_heals(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        nop, rhs, _ = small_system()
        results = multishift_cg(PoisonAt(nop, at_apply=10), rhs, self.SHIFTS, tol=1e-8)
        assert [e["kind"] for e in results[0].guard_events] == ["nonfinite"]
        # The reliable update restarts the companions on their shifts: none
        # needed a finishing solve.
        assert len({res.iterations for res in results}) == 1
        self._check_every_shift(nop, rhs, results, 1e-8)

    def test_bit_flip_detect_raises_and_heal_repairs(self, monkeypatch):
        nop, rhs, _ = small_system()
        monkeypatch.setenv(GUARD_ENV_VAR, "detect")
        with pytest.raises(SDCDetected):
            multishift_cg(FaultedOperator(nop, at_apply=15, bit=52), rhs, self.SHIFTS, tol=1e-8)
        monkeypatch.setenv(GUARD_ENV_VAR, "heal")
        results = multishift_cg(FaultedOperator(nop, at_apply=15, bit=52), rhs, self.SHIFTS,
                                tol=1e-8)
        assert "residual_drift" in [e["kind"] for e in results[0].guard_events]
        self._check_every_shift(nop, rhs, results, 1e-8)


class TestStagnationDetector:
    def test_fires_after_window_without_improvement(self):
        det = StagnationDetector(window=3)
        assert not det.update(1.0)
        assert not det.update(0.5)  # improvement resets the stall count
        assert not det.update(0.6)
        assert not det.update(0.7)
        assert det.update(0.8)  # third consecutive non-improvement

    def test_reset(self):
        det = StagnationDetector(window=2)
        det.update(1.0)
        det.update(2.0)
        det.reset()
        assert not det.update(3.0)


# -- mixed precision: escalation ----------------------------------------------


class TestMixedEscalation:
    def _ops(self):
        nop, rhs, dirac = small_system()
        nop32 = dirac.astype(np.complex64).normal_op()
        return nop, nop32, rhs

    def test_poisoned_inner_detect_raises(self):
        nop, nop32, rhs = self._ops()
        faulted32 = PoisonAt(nop32, at_apply=5)
        with pytest.raises(NumericalFault) as err:
            mixed_precision_cg(nop, faulted32, rhs, tol=1e-10, guard="detect")
        assert "inner" in str(err.value)

    def test_poisoned_inner_heals_by_fp64_escalation(self):
        nop, nop32, rhs = self._ops()
        faulted32 = PoisonAt(nop32, at_apply=5)
        res = mixed_precision_cg(nop, faulted32, rhs, tol=1e-10, guard="heal")
        assert res.converged
        true_rel = float(norm(rhs - nop(res.x)) / norm(rhs))
        assert true_rel < 1e-9
        assert any(e["action"] == "escalate" for e in res.guard_events)

    def test_clean_mixed_unchanged_by_guard(self):
        nop, nop32, rhs = self._ops()
        base = mixed_precision_cg(nop, nop32, rhs, tol=1e-10, guard="off")
        res = mixed_precision_cg(nop, nop32, rhs, tol=1e-10, guard="heal")
        assert np.array_equal(res.x, base.x)
        assert res.guard_events == []


# -- SPMD CG ------------------------------------------------------------------


class TestSpmdGuard:
    """The guarded recurrence of ``cg_spmd`` where it runs: on the master
    for ``virtual``, on the ranks for the process backends."""

    def test_clean_parity_and_detect_on_faulted_gauge(self):
        self._clean_parity("virtual")

    def test_nan_rhs_fails_fast(self):
        self._nan_rhs("virtual")

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_clean_parity_on_the_ranks(self, backend):
        self._clean_parity(backend)

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_nan_rhs_fails_fast_on_the_ranks(self, backend):
        self._nan_rhs(backend)

    @staticmethod
    def _clean_parity(backend):
        from repro.comm import make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        lat = Lattice4D(SMALL)
        gauge = GaugeField.warm(lat, eps=0.3, rng=6)
        b = random_fermion(lat, rng=7)
        with make_comm((2, 1, 1, 1), "virtual") as comm:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            base = cg_spmd(op, b, tol=1e-8, guard="off")
        with make_comm((2, 1, 1, 1), backend, timeout=60.0) as comm:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            off = cg_spmd(op, b, tol=1e-8, guard="off")
            res = cg_spmd(op, b, tol=1e-8,
                          guard=GuardPolicy(level="heal",
                                            true_residual_interval=8))
        assert off.x.tobytes() == base.x.tobytes() and off.history == base.history
        assert res.x.tobytes() == base.x.tobytes()
        assert res.guard_events == []

    @staticmethod
    def _nan_rhs(backend):
        from repro.comm import make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        lat = Lattice4D(SMALL)
        gauge = GaugeField.warm(lat, eps=0.3, rng=6)
        b = random_fermion(lat, rng=7)
        b[0, 0, 0, 0, 0, 0] = np.nan
        psi = random_fermion(lat, rng=8)
        with make_comm((2, 1, 1, 1), backend, timeout=60.0) as comm:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            before = op.apply(psi)
            with pytest.raises(NumericalFault) as raised:
                cg_spmd(op, b, tol=1e-8)
            assert raised.value.solver == "cg_spmd"
            # A fault of the recurrence, not of the ranks: they serve on.
            assert getattr(comm, "healthy", True)
            assert op.apply(psi).tobytes() == before.tobytes()

    @pytest.mark.parametrize("where", ["dslash", "allreduce"])
    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_rank_raising_mid_solve_leaves_the_pool_serving(self, backend, where, monkeypatch):
        """Rank 1 raises in its third hop (the ranks' barrier breaks) or its
        third sum (rank 0 waits for a total).  The solve is a prompt
        ``CommError``; every rank is back at its command loop, so the next
        apply and the next solve are those of a clean pool."""
        import time

        from repro.comm import CommError, make_comm
        from repro.comm.executor import RankExecutor
        from repro.dirac.decomposed import DecomposedWilsonDirac

        lat = Lattice4D(SMALL)
        gauge = GaugeField.warm(lat, eps=0.3, rng=6)
        b, psi = random_fermion(lat, rng=7), random_fermion(lat, rng=8)
        with make_comm((2, 1, 1, 1), "virtual") as comm:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            want, base = op.apply(psi), cg_spmd(op, b, tol=1e-8, guard="off")
        original = getattr(RankExecutor, where)
        calls = []  # each rank process counts its own, from the fork on

        def fail_once(ex, *args):
            if ex.rank == 1:
                calls.append(where)
                if len(calls) == 3:
                    if where == "dslash":
                        original(ex, *args)  # its faces are out; then it fails
                    raise RuntimeError("injected rank failure")
            return original(ex, *args)

        monkeypatch.setattr(RankExecutor, where, fail_once)
        with make_comm((2, 1, 1, 1), backend, timeout=20.0, start_method="fork") as comm:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            t0 = time.monotonic()
            with pytest.raises(CommError, match="injected rank failure"):
                cg_spmd(op, b, tol=1e-8, guard="off")
            assert time.monotonic() - t0 < comm.timeout / 4
            assert comm.healthy
            assert op.apply(psi).tobytes() == want.tobytes()
            again = cg_spmd(op, b, tol=1e-8, guard="off")
        assert again.x.tobytes() == base.x.tobytes() and again.history == base.history

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_rank_killed_mid_solve_is_a_comm_error(self, backend):
        import os
        import time

        from repro.campaign.faults import FaultInjector
        from repro.comm import CommError, make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        lat = Lattice4D(SMALL)
        gauge = GaugeField.warm(lat, eps=0.3, rng=6)
        b = random_fermion(lat, rng=7)
        inj = FaultInjector()
        comm = make_comm((2, 1, 1, 1), backend, timeout=20.0, fault_injector=inj)
        try:
            op = DecomposedWilsonDirac(gauge, mass=0.3, comm=comm)
            # Past the solve's ``declare`` and ``solve``: the third sum's total.
            inj.kill_rank(rank=1, at_command=comm._ncommands + 4)
            t0 = time.monotonic()
            with pytest.raises(CommError):
                cg_spmd(op, b, tol=1e-8)
            assert time.monotonic() - t0 < comm.timeout
        finally:
            pids = [w.pid for w in comm._workers]
            comm.close()
        for pid in pids:  # joined: the pid is gone, not a zombie
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# -- ABFT: checksums, linearity probes, GuardedOperator -----------------------


class TestABFT:
    def test_link_checksum_roundtrip(self):
        u = GaugeField.hot(Lattice4D(TINY), rng=4).u
        cs = LinkChecksum.encode(u)
        assert cs.verify(u) == []
        flip_bit(u[2], 5)
        assert cs.verify(u) == [2]

    def test_linearity_probe_clean(self):
        gauge = GaugeField.hot(Lattice4D(TINY), rng=4)
        dirac = WilsonDirac(gauge, 0.2, kernel="fused")
        shape = (gauge.lattice.shape + (4, 3))
        assert linearity_probe(dirac, shape, np.complex128, rng=1) < 1e-12

    def _guarded(self, level, interval=4):
        gauge = GaugeField.hot(Lattice4D(TINY), rng=4)
        op = WilsonDirac(gauge, 0.2, kernel="fused")
        policy = GuardPolicy(level=level, probe_interval=interval)
        return GuardedOperator(op, policy), gauge

    def test_off_is_transparent_even_when_corrupt(self):
        guarded, gauge = self._guarded("off")
        psi = random_fermion(gauge.lattice, rng=5)
        flip_bit(gauge.u, 9)
        for _ in range(8):
            guarded(psi)  # no probes, no raise — off really is off

    def test_delegation_is_bit_exact(self):
        guarded, gauge = self._guarded("detect")
        bare = WilsonDirac(gauge, 0.2, kernel="fused")
        psi = random_fermion(gauge.lattice, rng=5)
        assert np.array_equal(guarded(psi), bare(psi))

    def test_detect_fires_at_probe_interval(self):
        guarded, gauge = self._guarded("detect", interval=4)
        psi = random_fermion(gauge.lattice, rng=5)
        flip_bit(gauge.u, 9)
        guarded(psi)  # applies 1-3: no probe yet
        guarded(psi)
        guarded(psi)
        with pytest.raises(SDCDetected):
            guarded(psi)  # apply 4: checksum probe fires
        assert guarded.guard_events[-1]["action"] == "detect"

    def test_heal_repairs_and_stream_continues(self):
        guarded, gauge = self._guarded("heal", interval=4)
        psi = random_fermion(gauge.lattice, rng=5)
        flip_bit(gauge.u, 9)
        for _ in range(12):
            out = guarded(psi)
        assert np.all(np.isfinite(out))
        heals = [e for e in guarded.guard_events if e["action"] == "heal"]
        assert len(heals) == 1  # healed once, checksum re-encoded, stays quiet
        assert heals[0]["healed_links"] == 1
        from repro.su3 import unitarity_violation

        assert unitarity_violation(gauge.u) < 1e-12

    def test_heal_invalidates_kernel_cache(self):
        # The fused kernel caches link tables; a heal that leaves stale
        # tables would keep producing corrupt output.  After a heal, the
        # guarded stream must agree bit-for-bit with a fresh operator on
        # the healed links.
        guarded, gauge = self._guarded("heal", interval=4)
        psi = random_fermion(gauge.lattice, rng=5)
        flip_bit(gauge.u, 9)
        for _ in range(8):
            out = guarded(psi)
        fresh = WilsonDirac(gauge, 0.2, kernel="fused")
        assert np.array_equal(out, fresh(psi))


    @pytest.mark.parametrize("backend", ["virtual", "shm", "tcp"])
    def test_heal_reaches_the_rank_link_planes(self, backend):
        # A rank's stencil multiplies by the link planes of its block, in
        # place, and the rank checksums that block for the guard.  A plane
        # element flipped in rank 1's block before the first apply changes
        # the output; after the probe heals (planes rewritten from the
        # master's links) the stream agrees bit for bit with the
        # single-domain operator.
        from repro.comm import make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        gauge = GaugeField.hot(Lattice4D(SMALL), rng=4)
        psi = random_fermion(gauge.lattice, rng=5)
        with make_comm((2, 1, 1, 1), backend) as comm:
            op = DecomposedWilsonDirac(gauge, 0.2, comm)
            guarded = GuardedOperator(op, GuardPolicy(level="heal", probe_interval=4))
            if backend == "virtual":
                flip_bit(gauge.u, 9)  # the master's links; blocks are written from them
            else:
                _flip_rank_link(op, 1, 1234)
            outs = [guarded(psi) for _ in range(8)]
            assert [e["action"] for e in guarded.guard_events] == ["heal"]
        want = WilsonDirac(gauge, 0.2, kernel="fused").apply(psi)
        assert np.array_equal(outs[-1], want)
        if backend != "virtual":
            assert not np.array_equal(outs[0], want)  # the flip did reach the stencil

    def test_heal_reaches_a_rank_link_plane_flipped_after_the_first_apply(self):
        # The bytes the guard checksums are the bytes the stencil reads, so a
        # flip after the first apply (no cached copy shields it) changes the
        # next output, is caught by the next probe and healed.
        from repro.comm import make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        gauge = GaugeField.hot(Lattice4D(SMALL), rng=4)
        psi = random_fermion(gauge.lattice, rng=5)
        want = WilsonDirac(gauge, 0.2, kernel="fused").apply(psi)
        for backend in ("shm", "tcp"):
            with make_comm((2, 1, 1, 1), backend) as comm:
                op = DecomposedWilsonDirac(gauge, 0.2, comm)
                guarded = GuardedOperator(op, GuardPolicy(level="heal", probe_interval=4))
                assert np.array_equal(guarded(psi), want)
                _flip_rank_link(op, 1, 1234)
                outs = [guarded(psi) for _ in range(7)]
                assert [e["action"] for e in guarded.guard_events] == ["heal"]
            assert not np.array_equal(outs[0], want), backend
            assert np.array_equal(outs[-1], want), backend

    @pytest.mark.parametrize("backend", ["shm", "tcp"])
    def test_detect_catches_a_bit_flipped_in_a_rank_link_block(self, backend):
        # One exponent bit of one plane word in rank 1's block, which the
        # master holds no copy of: rank 1's own checksum of its block differs,
        # and the next probe raises, naming the rank.
        from repro.comm import make_comm
        from repro.dirac.decomposed import DecomposedWilsonDirac

        gauge = GaugeField.hot(Lattice4D(SMALL), rng=4)
        psi = random_fermion(gauge.lattice, rng=5)
        with make_comm((2, 1, 1, 1), backend) as comm:
            op = DecomposedWilsonDirac(gauge, 0.2, comm)
            guarded = GuardedOperator(op, GuardPolicy(level="detect", probe_interval=4))
            before = comm.block_checksums(op._u_key)
            _flip_rank_link(op, 1, 777, bit=True)
            after = comm.block_checksums(op._u_key)
            assert after[0] == before[0] and after[1] != before[1]
            with pytest.raises(SDCDetected, match=r"rank\(s\) \[1\]"):
                for _ in range(4):
                    guarded(psi)
            assert [e["kind"] for e in guarded.guard_events] == ["checksum-shm"]


def _flip_rank_link(op, rank: int, index: int, bit: bool = False) -> None:
    """Corrupt one plane word of ``rank``'s link block in rank memory: its
    sign, or (``bit``) one exponent bit.  Every block is rewritten from the
    links through the one path the master writes them by."""
    from repro.kernels.halo import write_rank_links

    def fill(r, block):
        write_rank_links(block, op.gauge.u, op._block_idx[r], op._split)
        if r == rank:
            if bit:
                flip_bit(block, index)
            else:
                block[index] *= -1.0

    op.comm.write_blocks(op._u_key, fill)


# -- campaign fault matrix ----------------------------------------------------


def guard_config(**overrides) -> CampaignConfig:
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


def ledger_text(directory) -> str:
    return (directory / "ledger.jsonl").read_text()


class TestCampaignFaultMatrix:
    """Every bit-flip site x guard level: heal restores bit-for-bit ledger
    parity, detect fails loudly, off silently diverges."""

    @pytest.fixture(scope="class")
    def ref_ledger(self, tmp_path_factory):
        ref_dir = tmp_path_factory.mktemp("guard-ref")
        HMCCampaign(ref_dir, guard_config()).run()
        return ledger_text(ref_dir)

    # Flip sites: before the first checkpoint (rollback = fresh restart),
    # mid-stream, and just before the end (rollback to the newest
    # checkpoint) — plus a high-bit flip that overflows instead of
    # doubling.
    @pytest.mark.parametrize(
        "flip_step,bit", [(1, 52), (3, 52), (7, 52), (5, 62)]
    )
    def test_heal_ledger_parity(self, tmp_path, ref_ledger, flip_step, bit):
        camp = HMCCampaign(tmp_path / "heal", guard_config())
        fault = FaultPlan().flip_gauge_bit_at(flip_step, flat_index=4, bit=bit)
        summary = camp.run(fault=fault, guard="heal")
        assert summary.faults_detected == 1
        assert summary.rollbacks == 1
        assert ledger_text(tmp_path / "heal") == ref_ledger
        # The incident is journaled — but never into the primary ledger.
        faults = (tmp_path / "heal" / "faults.jsonl").read_text()
        assert '"kind": "sdc"' in faults and '"action": "rollback"' in faults

    @pytest.mark.parametrize("flip_step", [3])
    def test_detect_fails_loudly(self, tmp_path, flip_step):
        camp = HMCCampaign(tmp_path / "detect", guard_config())
        fault = FaultPlan().flip_gauge_bit_at(flip_step, flat_index=4)
        with pytest.raises(UnitarityViolation):
            camp.run(fault=fault, guard="detect")
        faults = (tmp_path / "detect" / "faults.jsonl").read_text()
        assert '"action": "detect"' in faults

    @pytest.mark.parametrize("flip_step", [3])
    def test_off_silently_diverges(self, tmp_path, ref_ledger, flip_step):
        camp = HMCCampaign(tmp_path / "off", guard_config())
        fault = FaultPlan().flip_gauge_bit_at(flip_step, flat_index=4)
        summary = camp.run(fault=fault, guard="off")
        assert summary.faults_detected == 0
        assert summary.n_trajectories == 8  # finishes "successfully"...
        assert ledger_text(tmp_path / "off") != ref_ledger  # ...wrongly

    def test_unfaulted_guarded_run_matches_reference(self, tmp_path, ref_ledger):
        camp = HMCCampaign(tmp_path / "clean", guard_config())
        summary = camp.run(guard="heal")
        assert summary.faults_detected == 0 and summary.rollbacks == 0
        assert ledger_text(tmp_path / "clean") == ref_ledger
        assert not (tmp_path / "clean" / "faults.jsonl").exists()


class TestMeasurementGuard:
    def test_detect_refuses_corrupt_ensemble_config(self, tmp_path):
        gauges = [GaugeField.hot(Lattice4D(TINY), rng=r) for r in (1, 2)]
        flip_bit(gauges[1].u, 13)
        from repro.io import save_ensemble

        save_ensemble(tmp_path / "ens", gauges)
        camp = MeasurementCampaign(
            tmp_path / "ens", tmp_path / "meas", measure="plaquette"
        )
        with pytest.raises(UnitarityViolation):
            camp.run(guard="detect")

    def test_heal_completes_sweep(self, tmp_path):
        gauges = [GaugeField.hot(Lattice4D(TINY), rng=r) for r in (1, 2)]
        flip_bit(gauges[1].u, 13)
        from repro.io import save_ensemble

        save_ensemble(tmp_path / "ens", gauges)
        camp = MeasurementCampaign(
            tmp_path / "ens", tmp_path / "meas", measure="plaquette"
        )
        records = camp.run(guard="heal")
        assert len(records) == 2
