"""Tier-1 tests for the multi-RHS batch path.

Three layers, all held to the same standard as the single-RHS kernels:

* kernel-level: ``apply_batch_into`` must reproduce a loop of single-RHS
  kernel calls **bit-for-bit** across batch width, precision, boundary
  phases, and kernel tier (the batched path only amortises link traffic
  — it must not change a single bit of arithmetic);
* operator-level: every operator's batch protocol (Wilson, clover,
  even-odd Schur, normal equations, the domain-decomposed virtual-comm
  operator riding the loop fallback) matches its ``apply_into`` loop,
  daggered included;
* solver-level: each ``block_cg`` column is bit-identical (iterates,
  residual history, counts, guard events) to sequential
  :func:`~repro.solvers.cg.cg` on that column alone at every
  ``REPRO_GUARD`` level, and
  ``solve_wilson_batch`` delivers verified true residuals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import RankGrid, VirtualComm
from repro.dirac.clover import CloverDirac
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.eo import EvenOddWilson
from repro.dirac.hopping import DEFAULT_FERMION_PHASES, PERIODIC_PHASES
from repro.dirac.operator import MatrixOperator, NormalOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField
from repro.kernels import make_kernel
from repro.lattice import Lattice4D
from repro.solvers import block_cg, cg, solve_wilson, solve_wilson_batch

# Asymmetric extents so axis-ordering bugs cannot cancel; a 16-site
# lattice where only the protocol, not the stencil, is under test.
FUSED_DIMS = (2, 3, 4, 5)
SMALL_DIMS = (2, 2, 2, 2)
TWISTED_PHASES = (np.exp(0.3j), 1.0, np.exp(-0.2j), 1.0)

_GAUGE_CACHE: dict[tuple, GaugeField] = {}


def _gauge(dims: tuple) -> GaugeField:
    if dims not in _GAUGE_CACHE:
        _GAUGE_CACHE[dims] = GaugeField.warm(Lattice4D(dims), rng=11)
    return _GAUGE_CACHE[dims]


def _rand_block(dims: tuple, nrhs: int, dtype=np.complex128, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (nrhs,) + tuple(dims) + (4, 3)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- kernel-level bit-parity matrix -------------------------------------------


class TestKernelBatchParity:
    @pytest.mark.parametrize("kernel_name", ["fused", "reference"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
    @pytest.mark.parametrize(
        "phases",
        [PERIODIC_PHASES, DEFAULT_FERMION_PHASES, TWISTED_PHASES],
        ids=["periodic", "antiperiodic", "twisted"],
    )
    @pytest.mark.parametrize("nrhs", [1, 2, 5, 12])
    def test_batched_matches_looped(self, kernel_name, dtype, phases, nrhs):
        # fp32 casts links and fermions together, the mixed-precision
        # solver's convention (GaugeField.astype / WilsonDirac.astype).
        u = _gauge(FUSED_DIMS).u.astype(dtype)
        kernel = make_kernel(kernel_name)
        X = _rand_block(FUSED_DIMS, nrhs, dtype=dtype)
        out_batched = np.empty_like(X)
        kernel.apply_batch_into(u, X, phases, out=out_batched)
        out_looped = np.empty_like(X)
        for i in range(nrhs):
            kernel(u, X[i], phases, out=out_looped[i])
        assert _bit_equal(out_batched, out_looped)
        # A sub-block view (what block_cg's compaction passes) into a view.
        if nrhs > 2:
            out_view = np.empty_like(X)
            kernel.apply_batch_into(u, X[1:-1], phases, out=out_view[1:-1])
            assert _bit_equal(out_view[1:-1], out_looped[1:-1])

    def test_loop_fallback_tiers(self):
        """The reference tier gets the generic loop delegate."""
        gauge = _gauge(SMALL_DIMS)
        X = _rand_block(SMALL_DIMS, 3)
        kernel = make_kernel("reference")
        out = np.empty_like(X)
        kernel.apply_batch_into(gauge.u, X, PERIODIC_PHASES, out=out)
        want = np.stack(
            [kernel(gauge.u, X[i], PERIODIC_PHASES) for i in range(X.shape[0])]
        )
        assert _bit_equal(out, want)

    def test_batch_allocates_output(self):
        gauge = _gauge(FUSED_DIMS)
        kernel = make_kernel("fused")
        X = _rand_block(FUSED_DIMS, 2)
        out = kernel.apply_batch_into(gauge.u, X, DEFAULT_FERMION_PHASES)
        assert out.shape == X.shape
        want = np.empty_like(X)
        kernel.apply_batch_into(gauge.u, X, DEFAULT_FERMION_PHASES, out=want)
        assert _bit_equal(out, want)


# -- operator-level batch protocol --------------------------------------------


def _operator_cases():
    """(label, factory) pairs covering every batched operator path."""
    return [
        ("wilson_fused", lambda g: WilsonDirac(g, 0.3, kernel="fused")),
        # 'reference' has no native batch: exercises the column-loop
        # fallback through the same public batch API.
        ("wilson_reference", lambda g: WilsonDirac(g, 0.3, kernel="reference")),
        ("clover", lambda g: CloverDirac(g, 0.3, csw=1.2)),
        ("schur", lambda g: EvenOddWilson(g, 0.3).schur_operator()),
        # M^dag M in one kernel pass: on planes, composed around the hop
        # (a twisted phase), and composed by the reference kernel; the
        # clover operator keeps the generic wrapper.
        ("normal", lambda g: WilsonDirac(g, 0.3).normal_op()),
        ("normal_twisted", lambda g: WilsonDirac(g, 0.3, TWISTED_PHASES).normal_op()),
        ("normal_reference", lambda g: WilsonDirac(g, 0.3, kernel="reference").normal_op()),
        ("normal_clover", lambda g: CloverDirac(g, 0.3, csw=1.2).normal_op()),
        # Virtual-comm SPMD operator: no kernel batch hook, rides the
        # base-class column loop — the batch API must still be exact.
        (
            "decomposed_vcomm",
            lambda g: DecomposedWilsonDirac(
                g, 0.3, VirtualComm(RankGrid((2, 1, 1, 1)))
            ),
        ),
    ]


class TestOperatorBatchParity:
    @pytest.mark.parametrize(
        "label,factory", _operator_cases(), ids=[c[0] for c in _operator_cases()]
    )
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_apply_batch_matches_loop(self, label, factory, nrhs):
        dims = (4, 2, 2, 2) if label == "decomposed_vcomm" else SMALL_DIMS
        op = factory(_gauge(dims))
        X = _rand_block(dims, nrhs, seed=17)
        got = op.apply_batch(X)
        want = np.empty_like(X)
        for i in range(nrhs):
            op.apply_into(X[i], want[i])
        assert _bit_equal(got, want)

    @pytest.mark.parametrize(
        "label,factory", _operator_cases(), ids=[c[0] for c in _operator_cases()]
    )
    def test_apply_dagger_batch_matches_loop(self, label, factory):
        dims = (4, 2, 2, 2) if label == "decomposed_vcomm" else SMALL_DIMS
        op = factory(_gauge(dims))
        X = _rand_block(dims, 2, seed=23)
        got = op.apply_dagger_batch(X)
        want = np.empty_like(X)
        for i in range(X.shape[0]):
            op.apply_dagger_into(X[i], want[i])
        assert _bit_equal(got, want)

    @pytest.mark.parametrize("nrhs", [1, 3, 12])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["fp64", "fp32"])
    def test_schur_batch_on_half_lattice_matches_masked_reference(self, nrhs, dtype, schur_formula):
        """The fused Schur block (even sites gathered once, sub-blocks of
        columns on half-lattice planes) against the closed formula, column
        for column; 12 columns at this volume go through in more than one
        sub-block."""
        dims = (4, 6, 8, 8)
        gauge = _gauge(dims).astype(dtype)
        schur = EvenOddWilson(gauge, 0.3, kernel="fused").schur_operator()
        X = _rand_block(dims, nrhs, dtype, seed=31)
        for batch, dagger in ((schur.apply_batch_into, False), (schur.apply_dagger_batch_into, True)):
            got = batch(X, np.full_like(X, np.nan))
            assert got.dtype == X.dtype
            for i in range(nrhs):
                want = schur_formula(gauge.u, X[i], 0.3, DEFAULT_FERMION_PHASES, dagger)
                assert np.array_equal(got[i], want)

    def test_clover_normal_op_is_the_generic_wrapper(self):
        clover = CloverDirac(_gauge(FUSED_DIMS), 0.3, csw=1.2)
        X = _rand_block(FUSED_DIMS, 3, seed=37)
        got, want = clover.normal_op(), NormalOperator(clover)
        assert type(got) is NormalOperator
        assert _bit_equal(got.apply_batch(X), want.apply_batch(X))
        assert _bit_equal(got.apply(X[0]), want.apply(X[0]))

    def test_apply_batch_counts_applies(self):
        op = WilsonDirac(_gauge(SMALL_DIMS), 0.3)
        X = _rand_block(SMALL_DIMS, 3)
        before = op.n_applies
        op.apply_batch(X)
        assert op.n_applies == before + 3


# -- block CG -----------------------------------------------------------------


def _model_operator(n: int = 96, seed: int = 3) -> tuple[MatrixOperator, np.ndarray]:
    """Dense Hermitian PD model with a low-mode cluster (fast, ill-ish)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.concatenate([np.geomspace(1e-3, 1e-2, 8), np.linspace(0.5, 4.0, n - 8)])
    return MatrixOperator((q * eigs) @ q.conj().T), q


def _same_as_cg(op, B, block, x0=None):
    """Each block column against ``cg`` on that column alone, resolved the
    same way (``REPRO_GUARD``): bytes, history and every count."""
    for i, res in enumerate(block):
        seq = cg(op, B[i], x0=None if x0 is None else x0[i], tol=1e-8, max_iter=2000)
        assert _bit_equal(res.x, seq.x)
        assert res.history == seq.history
        assert (res.iterations, res.operator_applies) == (seq.iterations, seq.operator_applies)
        assert res.guard_events == seq.guard_events
        assert res.converged and seq.converged


GUARD_LEVELS = pytest.mark.parametrize("level", ["off", "detect", "heal"])
X0_GIVEN = pytest.mark.parametrize("with_x0", [False, True], ids=["x0=None", "x0=given"])


class TestBlockCG:
    @GUARD_LEVELS
    @X0_GIVEN
    def test_per_column_bit_parity_vs_sequential_cg(self, monkeypatch, level, with_x0):
        monkeypatch.setenv("REPRO_GUARD", level)
        op, _ = _model_operator()
        rng = np.random.default_rng(29)
        B = rng.normal(size=(3, 96)) + 1j * rng.normal(size=(3, 96))
        x0 = 0.1 * B[::-1] if with_x0 else None
        block = block_cg(op, B, x0=x0, tol=1e-8, max_iter=2000)
        _same_as_cg(op, B, block, x0)

    @GUARD_LEVELS
    @X0_GIVEN
    def test_masking_with_unequal_convergence(self, monkeypatch, level, with_x0):
        """Columns converging at different iterations: the compacted batch
        must not perturb the surviving columns."""
        monkeypatch.setenv("REPRO_GUARD", level)
        op, q = _model_operator()
        rng = np.random.default_rng(31)
        # Column 0: a single (well-conditioned) eigendirection -> converges
        # almost immediately.  Column 1: dense random -> many iterations.
        B = np.stack(
            [q[:, -1].copy(), rng.normal(size=96) + 1j * rng.normal(size=96)]
        )
        x0 = 0.5 * B if with_x0 else None
        block = block_cg(op, B, x0=x0, tol=1e-8, max_iter=2000)
        assert block[0].iterations < block[1].iterations
        _same_as_cg(op, B, block, x0)

    def test_full_width_applies_in_place(self):
        """While every column asks for its own search direction, the batch
        is applied to one block in place: the same array every round."""
        op, _ = _model_operator()
        seen = []
        apply_batch_into = op.apply_batch_into
        op.apply_batch_into = lambda X, out: seen.append(X) or apply_batch_into(X, out)
        B = np.random.default_rng(37).normal(size=(2, 96)) + 0j
        block = block_cg(op, B, tol=1e-8, max_iter=2000)
        assert block[0].iterations == block[1].iterations == len(seen)
        assert all(X is seen[0] for X in seen)

    def test_zero_column_with_initial_guess(self):
        """A zero right-hand side solves to zero whatever the guess, as in cg."""
        rng = np.random.default_rng(41)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        op = MatrixOperator(a @ a.conj().T + 8 * np.eye(8))
        B = np.stack([np.zeros(8, dtype=complex), rng.normal(size=8) + 0j])
        X0 = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        block = block_cg(op, B, x0=X0, tol=1e-8, max_iter=200)
        assert not block[0].x.any()
        assert (block[0].iterations, block[0].operator_applies) == (0, 0)
        _same_as_cg(op, B, block, X0)

    @GUARD_LEVELS
    def test_public_solvers_leave_x0_untouched(self, monkeypatch, level):
        monkeypatch.setenv("REPRO_GUARD", level)
        op, _ = _model_operator()
        rng = np.random.default_rng(43)
        B = rng.normal(size=(3, 96)) + 1j * rng.normal(size=(3, 96))
        x0 = 0.1 * B[::-1]
        kept = x0.tobytes()
        block = block_cg(op, B, x0=x0, tol=1e-8, max_iter=2000)
        single = cg(op, B[1], x0=x0[1], tol=1e-8, max_iter=2000)
        assert x0.tobytes() == kept
        assert not any(np.shares_memory(res.x, x0) for res in block + [single])

    def test_out_x0_continues_in_place(self):
        """``out=x0`` continues the guess in its own storage: the same
        results as from a copy, the solutions rows of that block."""
        op, _ = _model_operator()
        rng = np.random.default_rng(47)
        B = rng.normal(size=(3, 96)) + 1j * rng.normal(size=(3, 96))
        X = 0.1 * B[::-1]
        want = block_cg(op, B, x0=X.copy(), tol=1e-8, max_iter=2000)
        got = block_cg(op, B, x0=X, tol=1e-8, max_iter=2000, out=X)
        for i, (res, ref) in enumerate(zip(got, want)):
            assert np.shares_memory(res.x, X[i]) and _bit_equal(X[i], ref.x)
            assert (res.history, res.operator_applies) == (ref.history, ref.operator_applies)

    def test_zero_column_and_bad_shape(self):
        op, _ = _model_operator()
        B = np.zeros((2, 96), dtype=complex)
        B[1, 0] = 1.0
        block = block_cg(op, B, tol=1e-8, max_iter=2000)
        assert block[0].iterations == 0 and block[0].converged
        assert block[1].converged
        with pytest.raises(ValueError, match="nrhs"):
            block_cg(op, np.zeros(96, dtype=complex))


class TestSolveWilsonBatch:
    def test_true_residuals_verified(self):
        gauge = _gauge(SMALL_DIMS)
        dirac = WilsonDirac(gauge, 0.3)
        B = _rand_block(SMALL_DIMS, 3, seed=43)
        tol = 1e-8
        results = solve_wilson_batch(dirac, B, tol=tol, max_iter=2000)
        assert len(results) == 3
        for i, res in enumerate(results):
            assert res.converged
            assert res.label.startswith("wilson_")
            true_res = np.linalg.norm(B[i] - dirac.apply(res.x)) / np.linalg.norm(B[i])
            assert true_res <= 10 * tol
            assert res.residual == pytest.approx(true_res, rel=1e-6)

    def _two_rounds(self, monkeypatch) -> list:
        """Spy on the batched solve's step: the inner tolerance of each round."""
        import repro.solvers.block as block

        rounds, real = [], block.block_cg
        monkeypatch.setattr(
            block, "block_cg", lambda *a, **k: rounds.append(k["tol"]) or real(*a, **k)
        )
        return rounds

    @pytest.mark.parametrize("level", ["off", "detect", "heal"])
    def test_two_round_columns_equal_cg(self, monkeypatch, level):
        """Every column of a solve that refines twice is ``solve_wilson``
        (CG, continued from its own round-1 solution) on that column."""
        monkeypatch.setenv("REPRO_GUARD", level)
        dims = (4, 4, 4, 4)
        dirac = WilsonDirac(_gauge(dims), 0.0)
        B = _rand_block(dims, 3, seed=53)
        rounds = self._two_rounds(monkeypatch)
        results = solve_wilson_batch(dirac, B, tol=1e-8, max_iter=2000)
        assert len(rounds) == 2
        for b, res in zip(B, results):
            seq = solve_wilson(dirac, b, tol=1e-8, max_iter=2000)
            assert _bit_equal(res.x, seq.x)
            assert res.history == seq.history
            assert (res.iterations, res.operator_applies) == (seq.iterations, seq.operator_applies)
            assert res.guard_events == seq.guard_events and res.residual == seq.residual

    @pytest.mark.parametrize("level,blocks", [("off", 8), ("detect", 8), ("heal", 9)])
    def test_two_round_solve_holds_its_block_budget(self, monkeypatch, level, blocks):
        """A 12-column propagator solve that refines twice holds B, M^dag B,
        X, R, P, AP and the pack block (plus one column of scratch and the
        round's verify block, which never coexist with R, P, AP): <= 8
        blocks, where a copy per round and per request kept about 12.
        Under ``heal`` every column also keeps its last verified iterate
        (the rollback point), one block more.  The first solve sizes the
        kernel's arenas for every batch width; the second is traced."""
        import tracemalloc

        from repro.fields import point_source

        monkeypatch.setenv("REPRO_GUARD", level)
        dims = (8, 4, 4, 4)
        lat = Lattice4D(dims)
        dirac = WilsonDirac(GaugeField.warm(lat, rng=3), 0.3)

        def sources():
            return np.stack(
                [point_source(lat, (0, 0, 0, 0), s, c) for s in range(4) for c in range(3)]
            )

        solve_wilson_batch(dirac, sources(), tol=1e-6)
        rounds = self._two_rounds(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            B = sources()
            solve_wilson_batch(dirac, B, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rounds) == 2
        assert peak <= blocks * B.nbytes, f"{peak / B.nbytes:.2f} blocks"
