"""Tier-1 memory budgets, and the scratch arena every fused kernel on a thread shares.

A *block* is one fermion field of the workload's lattice, ``V * 12``
complex128 numbers (``nrhs`` of them for a batched solve).  DESIGN's
table *Memory budgets* states each workload's budget in blocks and what
fills it; the tests below hold those budgets with tracemalloc at every
guard level.  Each runs its workload once untraced (which sizes the
thread's arena and the link caches, as a long-lived server's first
request does) and traces the next.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import HMC, TwoFlavorWilsonAction, WilsonGaugeAction
from repro.comm import RankGrid, VirtualComm, make_comm
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.eo import EvenOddWilson, SchurOperator
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, point_source, random_fermion
from repro.kernels import FusedHopping, HaloStencil, make_kernel
from repro.kernels.workspace import thread_workspace
from repro.lattice import Lattice4D
from repro.serve import SolveQueue
from repro.solvers import cg_spmd, solve_wilson_batch, solve_wilson_eo
from repro.store import EnsembleStore, MeasurementService

LEVELS = ["off", "detect", "heal"]
SERVE_DIMS = (8, 4, 4, 4)


def _traced_peak(fn) -> int:
    """Peak bytes traced above the starting level while ``fn()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _point_block(lat: Lattice4D) -> np.ndarray:
    return np.stack([point_source(lat, (0, 0, 0, 0), s, c) for s in range(4) for c in range(3)])


# -- the thread's arena ----------------------------------------------------------


def test_fused_kernels_on_a_thread_share_its_arena():
    """Every fused kernel, a halo stencil's core among them, draws on the
    calling thread's arena; another thread has its own, and the reference
    kernel, the oracle, keeps a private one."""
    a, b = FusedHopping(), FusedHopping()
    assert a.workspace is b.workspace is thread_workspace()
    assert HaloStencil()._core.workspace is thread_workspace()
    reference = make_kernel("reference")
    assert reference.workspace is not thread_workspace()
    assert reference.workspace is not make_kernel("reference").workspace
    seen = []
    worker = threading.Thread(target=lambda: seen.append(FusedHopping().workspace))
    worker.start()
    worker.join()
    assert seen[0] is not thread_workspace()


def test_threads_apply_on_arenas_of_their_own():
    """More threads than cores apply operators of one shape at once, the
    interpreter switching every 10 us: each gives the bytes a lone apply
    gives, which one arena shared between threads would break."""
    lat = Lattice4D((4, 4, 4, 4))
    ops = [WilsonDirac(GaugeField.warm(lat, rng=50 + i), 0.1 * (i + 1)) for i in range(4)]
    X = np.stack([random_fermion(lat, rng=60 + i) for i in range(3)])
    want = [op.apply_batch_into(X, np.empty_like(X)).tobytes() for op in ops]
    wrong = []

    def work(i: int) -> None:
        out = np.empty_like(X)
        for _ in range(20):
            if ops[i].apply_batch_into(X, out).tobytes() != want[i]:
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ops))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _same_solve(got, want) -> None:
    assert got.x.tobytes() == want.x.tobytes()
    assert got.history == want.history
    assert (got.iterations, got.operator_applies) == (want.iterations, want.operator_applies)


# -- aliasing parity: operators that share an arena give the bytes they give alone --


def test_queue_thread_solve_beside_a_main_thread_operator():
    """A started queue's dispatcher solves a 12-column batch on its own
    thread while the main thread applies a second operator of the same
    shape, again and again: each gives the bytes it gives alone.  The guard
    level is the environment's, so CI runs this under every level."""
    lat = Lattice4D((4, 4, 4, 4))
    solved = WilsonDirac(GaugeField.warm(lat, rng=31), 0.3)
    applied = WilsonDirac(GaugeField.warm(lat, rng=32), 0.2).normal_op()
    B = _point_block(lat)
    X = np.stack([random_fermion(lat, rng=40 + i) for i in range(12)])
    alone = solve_wilson_batch(solved, B, tol=1e-8)
    want = applied.apply_batch_into(X, np.empty_like(X)).tobytes()
    out = np.empty_like(X)
    queue = SolveQueue(max_nrhs=12, coalesce_window=0.0).start()
    try:
        futures = [queue.submit(solved, b, tol=1e-8) for b in B]
        applies = 0
        while applies == 0 or not all(f.done() for f in futures):
            assert applied.apply_batch_into(X, out).tobytes() == want
            applies += 1
        results = [f.result(timeout=120) for f in futures]
    finally:
        queue.stop()
    for got, ref in zip(results, alone):
        _same_solve(got, ref)


def test_virtual_ranks_of_one_shape_apply_and_solve_bit_for_bit():
    """The master stencils both ranks of a 2-rank virtual grid, one local
    shape, from its one arena, between applies of a lattice operator of that
    shape: the apply is the reference kernel's (an arena of its own), and
    ``cg_spmd`` is the shm backend's, whose ranks are processes of their own."""
    lat = Lattice4D((4, 4, 4, 4))
    grid = RankGrid((2, 1, 1, 1))
    gauge = GaugeField.hot(lat, rng=5)
    psi, b = random_fermion(lat, rng=9), random_fermion(lat, rng=17)
    local = Lattice4D((2, 4, 4, 4))
    beside = WilsonDirac(GaugeField.hot(local, rng=6), 0.2)
    x_local = random_fermion(local, rng=7)
    vop = DecomposedWilsonDirac(gauge, 0.3, VirtualComm(grid))
    want = WilsonDirac(gauge, 0.3, kernel="reference").apply(psi).tobytes()
    for _ in range(2):
        beside.apply(x_local)
        assert vop.apply(psi).tobytes() == want
    got = cg_spmd(vop, b, tol=1e-8)
    with make_comm(grid, "shm", timeout=60.0) as comm:
        ranks = cg_spmd(DecomposedWilsonDirac(gauge, 0.3, comm), b, tol=1e-8)
    assert got.converged
    _same_solve(got, ranks)


def test_schur_solve_interleaved_with_another_mass(monkeypatch):
    """An even-odd solve whose every Schur apply, source preparation and
    reconstruction follows one of a second mass's on the same links (the
    same slots of the one arena) is the solve run alone, and that is the
    reference kernel's, byte for byte."""
    lat = Lattice4D((8, 4, 4, 4))
    gauge = GaugeField.warm(lat, rng=7)
    b, y = random_fermion(lat, rng=8), random_fermion(lat, rng=9)
    eo, other = EvenOddWilson(gauge, 0.1), EvenOddWilson(gauge, 0.3)
    alone = solve_wilson_eo(eo, b, tol=1e-8)
    _same_solve(alone, solve_wilson_eo(EvenOddWilson(gauge, 0.1, kernel="reference"), b, tol=1e-8))

    other_schur, y_e = other.schur_operator(), other.even_planes(y)[None]
    scratch = np.empty_like(y_e)
    apply_planes, prepare, reconstruct = (
        SchurOperator.apply_planes_into, EvenOddWilson.prepare_rhs, EvenOddWilson.reconstruct)

    def interleaved_planes(self, X, out, dagger=False, normal=False):
        if self.eo is eo:
            apply_planes(other_schur, y_e, scratch, dagger, normal)
        return apply_planes(self, X, out, dagger, normal)

    def interleaved(method, field):
        def run(self, *args):
            if self is eo:
                method(other, field, *args[1:])
            return method(self, *args)
        return run

    monkeypatch.setattr(SchurOperator, "apply_planes_into", interleaved_planes)
    monkeypatch.setattr(EvenOddWilson, "prepare_rhs", interleaved(prepare, y))
    monkeypatch.setattr(EvenOddWilson, "reconstruct", interleaved(reconstruct, y_e))
    _same_solve(solve_wilson_eo(eo, b, tol=1e-8), alone)


# -- a serve request: the batched solve and its arena ----------------------------


@pytest.mark.parametrize("level", LEVELS)
def test_batched_solve_arena_is_one_width_4_set(monkeypatch, level):
    """A 12-column solve at 8x4^3 runs its hops on sub-blocks of widths 4,
    3 and 1; the narrower ones are views of the width-4 buffers, so the
    arena ends no larger than one width-4 apply of each Wilson form leaves
    it (about 1.5 blocks of 12 columns), where a buffer per width held 5.2."""
    monkeypatch.setenv("REPRO_GUARD", level)
    lat = Lattice4D(SERVE_DIMS)
    dirac = WilsonDirac(GaugeField.warm(lat, rng=3), 0.3)
    B = _point_block(lat)
    arena = thread_workspace()
    arena.clear()
    X, out = B[:4], np.empty_like(B[:4])
    dirac.apply_batch_into(X, out)
    dirac.apply_dagger_batch_into(X, out)
    dirac.normal_op().apply_batch_into(X, out)
    width_4 = arena.nbytes
    arena.clear()
    results = solve_wilson_batch(dirac, B, tol=1e-8)
    assert all(res.converged for res in results)
    assert 0 < arena.nbytes <= width_4
    assert arena.nbytes <= 1.5 * B.nbytes


@pytest.mark.parametrize("level,blocks", [("off", 8), ("detect", 8), ("heal", 9)])
def test_served_request_holds_the_batched_solve_budget(monkeypatch, tmp_path, level, blocks):
    """A served configuration's operator is new, its scratch is not: once
    the thread's arena has seen every width (as a server's first requests
    leave it), a cold 12-column request holds the batched solve's budget
    whole, 8 blocks of 12 columns (9 under ``heal``), on the stored
    configuration it was sized on and on the next one alike (within one
    column: a request's journals and caches add a few kB).  A fresh arena
    per operator put 13-18 blocks on every request, and 2.5 MB more on the
    second configuration's than on the first's in the benchmark (14.8 MB
    against 12.3 MB traced)."""
    monkeypatch.setenv("REPRO_GUARD", level)
    lat = Lattice4D((4, 4, 4, 4))
    store = EnsembleStore(tmp_path / "store")
    keys = [
        store.put(
            GaugeField.warm(lat, rng=seed),
            {"action": "wilson", "couplings": {"beta": 5.7}, "trajectory": i,
             "rng": {"stream": "test-memory", "index": i}},
        )
        for i, seed in enumerate((21, 22))
    ]
    service = MeasurementService(store)

    def request(key, coord):
        params = {"quark_mass": 0.3, "tol": 1e-6, "source_coord": list(coord)}
        _, hit = service.request(key, "correlators", params)
        assert not hit

    request(keys[0], (1, 1, 1, 1))
    sizing = WilsonDirac(store.get(keys[0])[0], 0.3)
    X = _point_block(lat)
    for width in range(1, 13):
        for form in (sizing.apply_batch_into, sizing.apply_dagger_batch_into,
                     sizing.normal_op().apply_batch_into):
            form(X[:width], np.empty_like(X[:width]))
    first = _traced_peak(lambda: request(keys[0], (0, 0, 0, 0)))
    second = _traced_peak(lambda: request(keys[1], (0, 0, 0, 0)))
    block = 12 * lat.volume * 12 * np.dtype(np.complex128).itemsize
    assert first <= blocks * block, f"{first / block:.2f} blocks"
    assert second <= min(first + block / 12, blocks * block), f"{second / block:.2f} blocks"


# -- a Schur solve and an HMC trajectory ------------------------------------------


@pytest.mark.parametrize(
    "level,blocks", [("off", 5.0), ("detect", 5.0), ("heal", 5.5)], ids=LEVELS
)
def test_schur_solve_holds_its_block_budget(monkeypatch, level, blocks):
    """``solve_wilson_eo`` at 16x4^3 holds the round's full solution and its
    image under M, and the Schur system's even-site columns, half a block
    each: the right-hand side, the inner solution, and the round's x, r, p,
    Ap and scratch — 4.6 blocks, 5.1 under ``heal`` (the rollback iterate);
    8.1 and 9.1 while the Schur system ran on full-lattice fields."""
    monkeypatch.setenv("REPRO_GUARD", level)
    lat = Lattice4D((16, 4, 4, 4))
    eo = EvenOddWilson(GaugeField.warm(lat, rng=5), 0.1)
    b = random_fermion(lat, rng=6)
    solve_wilson_eo(eo, b, tol=1e-6)
    peak = _traced_peak(lambda: solve_wilson_eo(eo, b, tol=1e-6))
    assert peak <= blocks * b.nbytes, f"{peak / b.nbytes:.2f} blocks"


@pytest.mark.parametrize(
    "level,blocks", [("off", 24.6), ("detect", 24.6), ("heal", 24.6)], ids=LEVELS
)
def test_dynamical_trajectory_holds_its_block_budget(monkeypatch, level, blocks):
    """A 4^4 two-flavour trajectory peaks at 24.4 blocks at every guard
    level, inside a kick's gauge force (10.1 held, the fermion force among
    them; 14.3 of the plane force).  A kick's force-grade CG holds 7.2 (the
    proposal, the momenta, phi and the memoised solutions) and peaks at 22.0
    (22.5 under ``heal``, CG's rollback iterate): phi, the solutions and
    CG's vectors are even-site columns, half a block each.  While they were
    full-lattice fields the peak was 26.4 (27.4 under ``heal``), inside the
    CG and the gauge force alike.  It was 32.4 while the first kick's gauge
    force ran before its fermion force and so held the EvenOddWilson of the
    initial energy, 36.5 inside the fermion bilinear while that force still
    held its operator;
    the seed's eigh drift took 25.6 blocks, the plane drift 9.5.  The solve
    memo keys its solutions by a digest of the links, where a copy of the
    links per grade put the peak at 42.5; the shared arena is not in it
    either, where a fresh one per operator put it at 61."""
    monkeypatch.setenv("REPRO_GUARD", level)
    lat = Lattice4D((4, 4, 4, 4))
    gauge = GaugeField.warm(lat, eps=0.25, rng=42)
    hmc = HMC(
        [WilsonGaugeAction(5.3), TwoFlavorWilsonAction(mass=0.5)],
        step_size=0.1, n_steps=4, integrator="omelyan", rng=43,
    )
    hmc.trajectory(gauge)
    block = lat.volume * 12 * np.dtype(np.complex128).itemsize
    peak = _traced_peak(lambda: hmc.trajectory(gauge))
    assert peak <= blocks * block, f"{peak / block:.2f} blocks"


# -- a rank of an SPMD solve --------------------------------------------------------


def _mapped_files() -> str:
    try:
        with open("/proc/self/maps") as fh:
            return fh.read()
    except FileNotFoundError:
        pytest.skip("no /proc/self/maps on this platform")


@pytest.mark.parametrize("backend", ["shm", "tcp"])
def test_rank_solve_blocks_hold_the_rank_budget(backend):
    """A 2-rank (2,1,1,1) ``cg_spmd`` at 16x4^3, whose 8x4^3 ranks have the
    T extent of the 16^4 benchmark's: a rank's blocks are its link block
    (3 + 0.75/8 local blocks), the fermion halo block ``p`` and the second
    halo block ``h`` (1.25 each, ghost slabs on T only) and the output
    block (1), 6.59 of DESIGN's 11.3.  After construction the master maps
    no link block (shm) and keeps no copy of one (tcp)."""
    lat = Lattice4D((16, 4, 4, 4))
    gauge = GaugeField.warm(lat, rng=3)
    b = random_fermion(lat, rng=4)
    local_block = lat.volume // 2 * 12 * np.dtype(np.complex128).itemsize
    with make_comm((2, 1, 1, 1), backend, timeout=60.0) as comm:
        op = DecomposedWilsonDirac(gauge, 0.3, comm)
        assert comm.blocks(op._u_key) == [None, None]
        assert not hasattr(op, "_link_blocks")
        if backend == "shm":
            maps = _mapped_files()
            assert f"{comm._prefix}-{op._psi_key}-0" in maps
            assert f"{comm._prefix}-{op._u_key}-" not in maps
        assert cg_spmd(op, b, tol=1e-8).converged
        budget = {op._u_key: 3 + 0.75 / 8, op._psi_key: 1.25, op._hop_key: 1.25, op._out_key: 1}
        sizes = {
            key: int(np.prod(shape)) * np.dtype(dt).itemsize
            for key, (shape, dt, _) in comm._blocks.items()
        }
        assert sizes == {key: blocks * local_block for key, blocks in budget.items()}
        if backend == "shm":
            for r in range(2):
                assert [comm._segments[(key, r)].size for key in budget] == [
                    sizes[key] for key in budget]
        assert sum(sizes.values()) == 6.59375 * local_block
