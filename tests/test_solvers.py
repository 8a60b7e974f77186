"""Solver tests: correctness against dense oracles, convergence invariants,
and the mixed-precision scheme's accuracy beyond fp32."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dirac import LinearOperator, MatrixOperator, WilsonDirac
from repro.fields import GaugeField, norm, random_fermion, zero_fermion
from repro.lattice import Lattice4D
from repro.solvers import (
    SolveResult,
    bicgstab,
    cg,
    gcr,
    mixed_precision_cg,
    multishift_cg,
    solve_wilson,
    solve_wilson_batch,
    solve_wilson_eo,
)
from repro.telemetry import full_reset, get_registry, telemetry_mode
from repro.util.flops import cg_linalg_flops_per_iter

RNG = np.random.default_rng(1234)


def _hpd_operator(n: int, cond: float = 50.0, seed: int = 0) -> MatrixOperator:
    """A Hermitian positive-definite matrix with controlled conditioning."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return MatrixOperator((q * eigs) @ q.conj().T)


def _general_operator(n: int, seed: int = 0) -> MatrixOperator:
    """A well-conditioned non-Hermitian matrix."""
    rng = np.random.default_rng(seed)
    m = np.eye(n) * 4.0 + 0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return MatrixOperator(m)


class TestCG:
    def test_solves_hpd_system(self):
        op = _hpd_operator(40, seed=1)
        b = RNG.normal(size=40) + 1j * RNG.normal(size=40)
        res = cg(op, b, tol=1e-10)
        assert res.converged
        assert norm(op.apply(res.x) - b) / norm(b) < 1e-9

    def test_exact_solution_in_n_iterations(self):
        n = 12
        op = _hpd_operator(n, cond=10.0, seed=2)
        b = RNG.normal(size=n) + 0j
        res = cg(op, b, tol=1e-12, max_iter=n + 2)
        assert res.converged  # Krylov exactness

    def test_zero_rhs(self):
        op = _hpd_operator(5, seed=3)
        res = cg(op, np.zeros(5, dtype=complex))
        assert res.converged and res.iterations == 0
        assert norm(res.x) == 0.0

    def test_initial_guess_exact(self):
        op = _hpd_operator(8, seed=4)
        x_true = RNG.normal(size=8) + 0j
        b = op.apply(x_true)
        res = cg(op, b, x0=x_true, tol=1e-10)
        assert res.converged and res.iterations == 0

    def test_history_monotone_overall(self):
        op = _hpd_operator(30, cond=100.0, seed=5)
        b = RNG.normal(size=30) + 0j
        res = cg(op, b, tol=1e-10)
        # CG residuals can oscillate locally but the trend must be strongly down.
        assert res.history[0] == pytest.approx(1.0)
        assert res.history[-1] < 1e-9

    def test_max_iter_reports_unconverged(self):
        op = _hpd_operator(50, cond=1e4, seed=6)
        b = RNG.normal(size=50) + 0j
        res = cg(op, b, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_counts_operator_applies(self):
        op = _hpd_operator(20, seed=7)
        b = RNG.normal(size=20) + 0j
        res = cg(op, b, tol=1e-10)
        assert res.operator_applies == res.iterations
        assert res.flops == res.operator_applies * op.flops_per_apply

    def test_shaped_rhs(self):
        """Solvers accept lattice-shaped fields, not just flat vectors."""
        lat = Lattice4D((4, 2, 2, 2))
        gauge = GaugeField.hot(lat, rng=8)
        nop = WilsonDirac(gauge, mass=0.5).normal_op()
        b = random_fermion(lat, rng=9)
        res = cg(nop, b, tol=1e-8)
        assert res.converged
        assert res.x.shape == b.shape
        assert norm(nop.apply(res.x) - b) / norm(b) < 1e-7

    def test_summary_string(self):
        op = _hpd_operator(5, seed=10)
        res = cg(op, RNG.normal(size=5) + 0j)
        assert "cg" in res.summary()
        assert "converged" in res.summary()

    @given(st.integers(5, 25), st.floats(2.0, 1e3))
    @settings(max_examples=15, deadline=None)
    def test_property_solution_solves_system(self, n, cond):
        op = _hpd_operator(n, cond=cond, seed=n)
        rng = np.random.default_rng(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = cg(op, b, tol=1e-10, max_iter=10 * n)
        assert res.converged
        assert norm(op.apply(res.x) - b) / norm(b) < 1e-8


class TestBiCGStab:
    def test_solves_nonhermitian_system(self):
        op = _general_operator(40, seed=11)
        b = RNG.normal(size=40) + 1j * RNG.normal(size=40)
        res = bicgstab(op, b, tol=1e-10)
        assert res.converged
        assert norm(op.apply(res.x) - b) / norm(b) < 1e-8

    def test_two_applies_per_iteration(self):
        op = _general_operator(30, seed=12)
        b = RNG.normal(size=30) + 0j
        res = bicgstab(op, b, tol=1e-10)
        assert res.operator_applies <= 2 * res.iterations + 1

    def test_zero_rhs(self):
        op = _general_operator(5, seed=13)
        res = bicgstab(op, np.zeros(5, dtype=complex))
        assert res.converged and res.iterations == 0

    def test_solves_wilson_directly(self):
        lat = Lattice4D((4, 2, 2, 2))
        m = WilsonDirac(GaugeField.hot(lat, rng=14), mass=0.5)
        b = random_fermion(lat, rng=15)
        res = bicgstab(m, b, tol=1e-9)
        assert res.converged
        assert norm(m.apply(res.x) - b) / norm(b) < 1e-8

    def test_initial_guess(self):
        op = _general_operator(10, seed=16)
        x_true = RNG.normal(size=10) + 0j
        res = bicgstab(op, op.apply(x_true), x0=x_true, tol=1e-10)
        assert res.converged and res.iterations == 0


class TestGCR:
    def test_solves_nonhermitian_system(self):
        op = _general_operator(40, seed=17)
        b = RNG.normal(size=40) + 1j * RNG.normal(size=40)
        res = gcr(op, b, tol=1e-10, restart=20)
        assert res.converged
        assert norm(op.apply(res.x) - b) / norm(b) < 1e-8

    def test_residual_monotone(self):
        """GCR minimises the residual, so the history never increases."""
        op = _general_operator(30, seed=18)
        b = RNG.normal(size=30) + 0j
        res = gcr(op, b, tol=1e-10, restart=10)
        assert all(b <= a + 1e-14 for a, b in zip(res.history, res.history[1:]))

    def test_restart_one_still_converges(self):
        op = _hpd_operator(15, cond=5.0, seed=19)
        b = RNG.normal(size=15) + 0j
        res = gcr(op, b, tol=1e-8, restart=1, max_iter=500)
        assert res.converged

    def test_invalid_restart(self):
        op = _hpd_operator(5, seed=20)
        with pytest.raises(ValueError):
            gcr(op, np.ones(5, dtype=complex), restart=0)

    def test_zero_rhs(self):
        op = _general_operator(5, seed=21)
        res = gcr(op, np.zeros(5, dtype=complex))
        assert res.converged and res.iterations == 0


class TestMultishift:
    def test_all_shifts_solved(self):
        op = _hpd_operator(30, cond=30.0, seed=22)
        b = RNG.normal(size=30) + 1j * RNG.normal(size=30)
        shifts = [0.0, 0.5, 2.0]
        results = multishift_cg(op, b, shifts, tol=1e-10, max_iter=500)
        assert len(results) == 3
        for sigma, res in zip(shifts, results):
            assert res.converged
            lhs = op.apply(res.x) + sigma * res.x
            assert norm(lhs - b) / norm(b) < 1e-7, sigma

    def test_shift_order_preserved(self):
        op = _hpd_operator(20, seed=23)
        b = RNG.normal(size=20) + 0j
        shifts = [3.0, 0.0, 1.0]  # deliberately unsorted
        results = multishift_cg(op, b, shifts, tol=1e-10)
        for sigma, res in zip(shifts, results):
            lhs = op.apply(res.x) + sigma * res.x
            assert norm(lhs - b) / norm(b) < 1e-7, sigma

    def test_shared_cost(self):
        op = _hpd_operator(20, seed=24)
        b = RNG.normal(size=20) + 0j
        results = multishift_cg(op, b, [0.0, 1.0], tol=1e-10)
        assert results[0].operator_applies == results[1].operator_applies

    def test_validates_input(self):
        op = _hpd_operator(5, seed=25)
        with pytest.raises(ValueError):
            multishift_cg(op, np.ones(5, dtype=complex), [])
        with pytest.raises(ValueError):
            multishift_cg(op, np.ones(5, dtype=complex), [-1.0])

    def test_zero_rhs(self):
        op = _hpd_operator(5, seed=26)
        results = multishift_cg(op, np.zeros(5, dtype=complex), [0.0, 1.0])
        assert all(r.converged for r in results)

    def test_matches_individual_cg(self):
        op = _hpd_operator(25, cond=20.0, seed=27)
        b = RNG.normal(size=25) + 0j
        ms = multishift_cg(op, b, [0.0, 0.7], tol=1e-11, max_iter=500)

        class _Shifted(MatrixOperator):
            pass

        shifted = _Shifted(op.matrix + 0.7 * np.eye(25))
        single = cg(shifted, b, tol=1e-11, max_iter=500)
        assert norm(ms[1].x - single.x) / norm(single.x) < 1e-6

    class _PlusSigma(LinearOperator):
        """``op + sigma``, applied as ``op x + sigma x``."""

        def __init__(self, op, sigma):
            super().__init__()
            self.op, self.sigma = op, sigma

        def apply(self, x):
            return self.apply_into(x, np.empty_like(x))

        def apply_into(self, x, out):
            self.op.apply_into(x, out)
            out += self.sigma * x
            return out

    @pytest.mark.parametrize("sigma", [0.0, 0.35])
    def test_one_shift_is_cg_bit_for_bit(self, sigma):
        """One shift runs cg's recurrence on ``op + sigma`` and nothing else:
        same solution bytes, iterations and residual history."""
        op = _hpd_operator(30, cond=40.0, seed=28)
        b = RNG.normal(size=30) + 1j * RNG.normal(size=30)
        (ms,) = multishift_cg(op, b, [sigma], tol=1e-10, max_iter=500)
        ref = cg(op if sigma == 0.0 else self._PlusSigma(op, sigma), b, tol=1e-10, max_iter=500)
        assert ms.x.tobytes() == ref.x.tobytes()
        assert ms.iterations == ref.iterations
        assert np.array(ms.history).tobytes() == np.array(ref.history).tobytes()

    def test_residuals_are_true_and_within_tol(self):
        op = _hpd_operator(40, cond=200.0, seed=29)
        b = RNG.normal(size=40) + 1j * RNG.normal(size=40)
        shifts = [0.02, 5.0, 0.3, 60.0]
        results = multishift_cg(op, b, shifts, tol=1e-9, max_iter=1000)
        # The companions reach tol by themselves: no shift needed a finishing solve.
        assert len({res.iterations for res in results}) == 1
        for sigma, res in zip(shifts, results):
            true = norm(b - op.apply(res.x) - sigma * res.x) / norm(b)
            assert res.residual == pytest.approx(true, rel=1e-6, abs=1e-15), sigma
            assert res.converged and res.residual <= 1e-9, sigma

    def test_publishes_record_solve(self):
        op = _hpd_operator(20, seed=30)
        b = RNG.normal(size=20) + 0j
        full_reset()
        try:
            with telemetry_mode("counters"):
                results = multishift_cg(op, b, [0.0, 0.5, 2.0], tol=1e-10)
            reg = get_registry()
            assert reg.get("solver/multishift_cg/solves") == 1
            assert reg.get("solver/multishift_cg/iterations") == results[0].iterations > 0
        finally:
            full_reset()

    def test_linalg_flops_count_companions_and_verification(self):
        """``linalg_flops``: the seed's CG iterations, each companion's three
        vector updates per step (``x += a p``, ``p *= b``, ``p += z r``: 5
        flops a real) and each verified residual (``R += sigma X``,
        ``R -= b``, ``|r|^2``: 5 flops a real)."""
        op = _hpd_operator(20, seed=31)
        b = RNG.normal(size=20) + 0j
        full_reset()
        try:
            with telemetry_mode("counters"):
                results = multishift_cg(op, b, [0.0, 0.5, 2.0, 4.0], tol=1e-10)
            it, reals = results[0].iterations, 2 * b.size
            assert all(res.iterations == it for res in results)  # no finishing solve
            companions, verified = 3 * it, 4
            assert get_registry().get("solver/multishift_cg/linalg_flops") == (
                it * cg_linalg_flops_per_iter(reals) + 5 * (companions + verified) * reals
            )
        finally:
            full_reset()


class TestMixedPrecision:
    def _wilson_pair(self, mass=0.3, seed=28):
        lat = Lattice4D((4, 4, 2, 2))
        gauge = GaugeField.hot(lat, rng=seed)
        d64 = WilsonDirac(gauge, mass=mass)
        return d64.normal_op(), d64.astype(np.complex64).normal_op(), lat, d64

    def test_reaches_beyond_fp32_accuracy(self):
        """The defining property: final fp64 residual far below fp32 eps."""
        nop64, nop32, lat, _ = self._wilson_pair()
        b = random_fermion(lat, rng=29)
        res = mixed_precision_cg(nop64, nop32, b, tol=1e-11)
        assert res.converged
        assert norm(nop64.apply(res.x) - b) / norm(b) < 1e-10  # << 1e-7 fp32 floor

    def test_true_residual_history_decreases(self):
        nop64, nop32, lat, _ = self._wilson_pair()
        b = random_fermion(lat, rng=30)
        res = mixed_precision_cg(nop64, nop32, b, tol=1e-10)
        assert res.history[0] == pytest.approx(1.0)
        assert res.history[-1] < 1e-10
        assert res.inner_iterations > 0

    def test_matches_double_cg_solution(self):
        nop64, nop32, lat, _ = self._wilson_pair()
        b = random_fermion(lat, rng=31)
        x_mixed = mixed_precision_cg(nop64, nop32, b, tol=1e-11).x
        x_double = cg(nop64, b, tol=1e-11, max_iter=5000).x
        assert norm(x_mixed - x_double) / norm(x_double) < 1e-8

    def test_validates_inner_tol(self):
        nop64, nop32, lat, _ = self._wilson_pair()
        b = random_fermion(lat, rng=32)
        with pytest.raises(ValueError):
            mixed_precision_cg(nop64, nop32, b, inner_tol=1.5)

    def test_zero_rhs(self):
        nop64, nop32, lat, _ = self._wilson_pair()
        res = mixed_precision_cg(nop64, nop32, zero_fermion(lat))
        assert res.converged and res.iterations == 0


class TestWilsonDrivers:
    def test_solve_wilson_verified_residual(self):
        lat = Lattice4D((4, 4, 2, 2))
        m = WilsonDirac(GaugeField.hot(lat, rng=33), mass=0.4)
        b = random_fermion(lat, rng=34)
        res = solve_wilson(m, b, tol=1e-8)
        assert res.converged
        assert norm(m.apply(res.x) - b) / norm(b) < 1e-7

    def test_solve_wilson_mixed(self):
        lat = Lattice4D((4, 4, 2, 2))
        m = WilsonDirac(GaugeField.hot(lat, rng=35), mass=0.4)
        b = random_fermion(lat, rng=36)
        res = solve_wilson(m, b, tol=1e-8, mixed=True)
        assert res.converged
        assert norm(m.apply(res.x) - b) / norm(b) < 1e-7

    def test_eo_solve_matches_direct(self):
        from repro.dirac import EvenOddWilson

        lat = Lattice4D((4, 4, 2, 2))
        gauge = GaugeField.hot(lat, rng=37)
        m = WilsonDirac(gauge, mass=0.4)
        eo = EvenOddWilson(gauge, mass=0.4)
        b = random_fermion(lat, rng=38)
        x_direct = solve_wilson(m, b, tol=1e-9).x
        res_eo = solve_wilson_eo(eo, b, tol=1e-9)
        assert res_eo.converged
        assert norm(res_eo.x - x_direct) / norm(x_direct) < 1e-6

    def test_eo_uses_fewer_applications(self):
        """The even-odd payoff: fewer Dslash-equivalents to the same accuracy."""
        lat = Lattice4D((4, 4, 4, 2))
        gauge = GaugeField.warm(lat, eps=0.4, rng=39)
        mass = 0.05  # light quark: conditioning matters
        m = WilsonDirac(gauge, mass=mass)
        from repro.dirac import EvenOddWilson

        eo = EvenOddWilson(gauge, mass=mass)
        b = random_fermion(lat, rng=40)
        res_full = solve_wilson(m, b, tol=1e-8, max_iter=20000)
        res_eo = solve_wilson_eo(eo, b, tol=1e-8, max_iter=20000)
        assert res_full.converged and res_eo.converged
        assert res_eo.flops < res_full.flops


class _UnderDeliver:
    """Stand in for an inner solver: run the real one at ``loose`` instead
    of the requested tolerance for the first ``rounds`` calls, and keep a
    snapshot of what every call was asked and what it returned."""

    def __init__(self, real, loose: float, rounds: int) -> None:
        self.real, self.loose, self.rounds = real, loose, rounds
        self.calls: list[dict] = []

    def __call__(self, *args, **kwargs):
        asked = kwargs["tol"]
        if len(self.calls) < self.rounds:
            kwargs["tol"] = self.loose
        out = self.real(*args, **kwargs)
        steps = out if isinstance(out, list) else [out]
        self.calls.append(
            {
                "tol": asked,
                "continued": kwargs.get("x0") is not None,
                # The driver merges into the first round's objects in place.
                "steps": [dataclasses.replace(s, history=list(s.history)) for s in steps],
            }
        )
        return out


#: front end -> (the inner solver name it looks up, its label, how to call it on a block).
_FRONT_ENDS = {
    "cg": ("repro.solvers.wilson_solve.cg", "wilson_cg",
           lambda m, eo, B, tol: [solve_wilson(m, B[0], tol=tol)]),
    "mixed": ("repro.solvers.wilson_solve.mixed_precision_cg", "wilson_mixed_cg",
              lambda m, eo, B, tol: [solve_wilson(m, B[0], tol=tol, mixed=True)]),
    "eo": ("repro.solvers.wilson_solve.cg", "wilson_eo_cg",
           lambda m, eo, B, tol: [solve_wilson_eo(eo, B[0], tol=tol)]),
    "batch": ("repro.solvers.block.block_cg", "wilson_block_cg",
              lambda m, eo, B, tol: solve_wilson_batch(m, B, tol=tol)),
    "eo_batch": ("repro.solvers.block.block_cg", "wilson_eo_block_cg",
                 lambda m, eo, B, tol: solve_wilson_batch(eo, B, tol=tol)),
}


@pytest.mark.parametrize("front_end", list(_FRONT_ENDS))
class TestVerifyAndRefine:
    """The one verify-and-refine driver behind ``solve_wilson`` (cg and
    mixed), ``solve_wilson_eo`` and ``solve_wilson_batch``, past round 1."""

    TOL = 1e-8

    def _run(self, monkeypatch, front_end, rounds):
        from repro.dirac import EvenOddWilson

        lat = Lattice4D((4, 4, 2, 2))
        gauge = GaugeField.hot(lat, rng=41)
        m, eo = WilsonDirac(gauge, mass=0.4), EvenOddWilson(gauge, mass=0.4)
        B = np.stack([random_fermion(lat, rng=42 + i) for i in range(2)])
        target, _, solve = _FRONT_ENDS[front_end]
        module, name = target.rsplit(".", 1)
        spy = _UnderDeliver(getattr(importlib.import_module(module), name), 1e-3, rounds)
        monkeypatch.setattr(target, spy)
        results = solve(m, eo, B, self.TOL)
        true = [norm(b - m.apply(res.x)) / norm(b) for b, res in zip(B, results)]
        return spy, results, true

    def test_rounds_merge_into_one_result(self, monkeypatch, front_end):
        spy, results, true = self._run(monkeypatch, front_end, rounds=1)
        # Round 1 under-delivered, round 2 at tol x 0.01 passed the check.
        assert [c["tol"] for c in spy.calls] == pytest.approx([self.TOL, self.TOL * 1e-2])
        # Round 2 continues from round 1, except mixed (no initial guess).
        assert [c["continued"] for c in spy.calls] == [False, front_end != "mixed"]
        for i, (res, true_res) in enumerate(zip(results, true)):
            first, second = (c["steps"][i] for c in spy.calls)
            for field in ("iterations", "operator_applies", "flops", "inner_iterations"):
                assert getattr(res, field) == getattr(first, field) + getattr(second, field)
            assert second.iterations > 0 and res.operator_applies > 0 and res.flops > 0
            assert (res.inner_iterations > 0) == (front_end == "mixed")
            assert res.wall_time == pytest.approx(first.wall_time + second.wall_time)
            # Histories join without repeating the joint point.
            assert res.history == first.history + second.history[1:]
            assert res.label == _FRONT_ENDS[front_end][1]
            assert res.residual == pytest.approx(true_res, rel=1e-6)
            assert res.converged and true_res <= self.TOL

    def test_stops_after_three_rounds_and_reports_the_true_residual(
        self, monkeypatch, front_end
    ):
        spy, results, true = self._run(monkeypatch, front_end, rounds=99)
        assert [c["tol"] for c in spy.calls] == pytest.approx(
            [self.TOL, self.TOL * 1e-2, self.TOL * 1e-4]
        )
        for i, (res, true_res) in enumerate(zip(results, true)):
            steps = [c["steps"][i] for c in spy.calls]
            # Every step believed it converged; M itself says otherwise.
            assert all(s.converged for s in steps)
            assert true_res > 10 * self.TOL
            assert not res.converged
            assert res.residual == pytest.approx(true_res, rel=1e-6)
            assert res.iterations == sum(s.iterations for s in steps)
            assert len(res.history) == sum(len(s.history) for s in steps) - 2
