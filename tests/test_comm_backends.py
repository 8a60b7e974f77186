"""Backend-parametrised bit-parity matrix for every communicator.

Every instantiable backend (``virtual``, ``shm``, ``tcp`` — and any future
entry of :func:`repro.comm.available_comms`) must be a bit-exact drop-in:
same ghost shells, same sums, same operator output, same solver iterates,
same trace — for every rank grid, boundary phase, and field dtype.  The
cases here were lifted from the original shm-only suite
(``tests/test_comm_shm.py``, which keeps only shm-specific teardown and
fault-injection drills) and parametrised over the backend name, so a new
backend joins the whole matrix by registering in the comm registry.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp

import numpy as np
import pytest

from repro.comm import (
    COMM_ENV_VAR,
    CollectiveEvent,
    RankGrid,
    ShmComm,
    TcpComm,
    VirtualComm,
    add_halo,
    available_comms,
    make_comm,
    resolve_comm_name,
)
from repro.comm.pool import RankPoolComm
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import cg, cg_spmd

#: Every backend the matrix runs against.  ``virtual`` is the reference
#: and also runs through the matrix so the harness itself is symmetric.
BACKENDS = list(available_comms())

#: Backends whose ranks are real processes with per-rank block storage.
BLOCK_BACKENDS = [n for n in BACKENDS if n != "virtual"]

GRIDS = [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1), (4, 1, 1, 1)]
PHASES = [(-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)]
DTYPES = [np.complex64, np.complex128]  # fp32 and fp64 field data

LATTICE = Lattice4D((4, 4, 6, 4))

#: Short deadlines so a wedged backend fails the suite instead of stalling it.
COMM_KW = {"timeout": 60.0}


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.hot(LATTICE, rng=5)


@pytest.fixture(scope="module")
def psi():
    return random_fermion(LATTICE, rng=9)


def _noncorner_equal(a: np.ndarray, b: np.ndarray, w: int = 1) -> bool:
    """Compare interior + all ghost faces (corners are never exchanged)."""
    interior = tuple(slice(w, -w) for _ in range(4))
    if not np.array_equal(a[interior], b[interior]):
        return False
    for mu in range(4):
        for face in (slice(0, w), slice(-w, None)):
            idx = [slice(w, -w)] * 4
            idx[mu] = face
            if not np.array_equal(a[tuple(idx)], b[tuple(idx)]):
                return False
    return True


def _exchanged(backend: str, grid: RankGrid, blocks, phases, dtype):
    """Run one ghost-shell exchange on ``backend``; return the filled arrays."""
    if backend == "virtual":
        halos = [add_halo(b.astype(dtype)) for b in blocks]
        VirtualComm(grid).exchange(halos, phases=phases)
        return [h.data for h in halos]
    with make_comm(grid, backend, **COMM_KW) as comm:
        key = comm.new_key("psi")
        shape = tuple(n + 2 for n in blocks[0].shape[:4]) + blocks[0].shape[4:]
        views = comm.alloc_blocks(key, shape, dtype)
        interior = tuple(slice(1, -1) for _ in range(4))
        for r, b in enumerate(blocks):
            views[r][interior] = b.astype(dtype)
        comm.exchange_shared(key, width=1, phases=phases)
        return [v.copy() for v in views]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
@pytest.mark.parametrize("phases", PHASES)
@pytest.mark.parametrize("dtype", DTYPES)
class TestExchangeParity:
    def test_exchange_matches_virtual(self, backend, dims, phases, dtype, psi):
        grid = RankGrid(dims)
        blocks = VirtualComm(grid).decompose(LATTICE).scatter(psi)
        vhalos = [add_halo(b.astype(dtype)) for b in blocks]
        VirtualComm(grid).exchange(vhalos, phases=phases)
        got = _exchanged(backend, grid, blocks, phases, dtype)
        for r in range(grid.nranks):
            assert got[r].dtype == np.dtype(dtype)
            assert _noncorner_equal(vhalos[r].data, got[r]), f"{backend} rank {r}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
class TestAllreduceParity:
    def test_complex_sum_bit_identical(self, backend, dims):
        grid = RankGrid(dims)
        rng = np.random.default_rng(3)
        partials = [complex(rng.normal(), rng.normal()) for _ in range(grid.nranks)]
        want = VirtualComm(grid).allreduce_sum(partials)
        with make_comm(grid, backend, **COMM_KW) as comm:
            got = comm.allreduce_sum(partials)
        assert complex(got) == complex(want)

    def test_real_sum_returns_float(self, backend, dims):
        grid = RankGrid(dims)
        partials = [0.1 * (r + 1) for r in range(grid.nranks)]
        want = VirtualComm(grid).allreduce_sum(partials)
        with make_comm(grid, backend, **COMM_KW) as comm:
            got = comm.allreduce_sum(partials)
        assert isinstance(got, float)
        assert float(got) == float(want)

    def test_wrong_partial_count_raises(self, backend, dims):
        grid = RankGrid(dims)
        with make_comm(grid, backend, **COMM_KW) as comm:
            with pytest.raises(ValueError):
                comm.allreduce_sum([1.0] * (grid.nranks + 1))


class TestAllreduceFp32:
    """Process backends share widen-to-fp64-then-sum reduction semantics:
    fp32 partials produce bit-identical sums on every block backend."""

    @pytest.mark.parametrize("dims", [(2, 1, 1, 1), (2, 2, 1, 1)])
    def test_fp32_partials_identical_across_block_backends(self, dims):
        grid = RankGrid(dims)
        rng = np.random.default_rng(11)
        partials = [
            np.complex64(complex(rng.normal(), rng.normal()))
            for _ in range(grid.nranks)
        ]
        sums = {}
        for backend in BLOCK_BACKENDS:
            with make_comm(grid, backend, **COMM_KW) as comm:
                sums[backend] = comm.allreduce_sum(partials)
        values = list(sums.values())
        assert all(v == values[0] for v in values), sums


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", GRIDS)
@pytest.mark.parametrize("phases", PHASES)
class TestOperatorParity:
    def test_apply_and_trace_bit_identical(self, backend, dims, phases, gauge, psi):
        grid = RankGrid(dims)
        vop = DecomposedWilsonDirac(gauge, 0.1, VirtualComm(grid), phases=phases)
        want = vop.apply(psi)
        with make_comm(grid, backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.1, comm, phases=phases)
            got = op.apply(psi)
            assert np.array_equal(want, got)
            assert comm.trace.events == vop.comm.trace.events


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", [(2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1)])
@pytest.mark.parametrize("phases", PHASES)
class TestSolverParity:
    def test_cg_spmd_bit_identical(self, backend, dims, phases, gauge):
        """On the process backends a complex128 solve runs on the ranks and a
        complex64 one on the master; either way its result and its trace,
        event for event, are the virtual backend's."""
        grid = RankGrid(dims)
        vcomm = VirtualComm(grid)
        vop = DecomposedWilsonDirac(gauge, 0.3, vcomm, phases=phases)
        with make_comm(grid, backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.3, comm, phases=phases)
            for dtype, guard in itertools.product(
                (np.complex128, np.complex64), ("off", "detect", "heal")
            ):
                b = random_fermion(LATTICE, rng=17).astype(dtype)
                vcomm.trace.clear()
                want = cg_spmd(vop, b, tol=1e-6, max_iter=100, guard=guard)
                comm.trace.clear()
                got = cg_spmd(op, b, tol=1e-6, max_iter=100, guard=guard)
                assert want.converged and got.converged
                assert want.iterations == got.iterations
                assert want.history == got.history
                assert got.x.dtype == dtype
                assert want.x.tobytes() == got.x.tobytes()
                assert (want.operator_applies, want.flops, want.residual, want.guard_events) == (
                    got.operator_applies, got.flops, got.residual, got.guard_events)
                assert comm.trace.events == vcomm.trace.events


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1)])
def test_halo_blocks_carry_ghosts_on_split_axes_only(backend, dims, gauge, psi):
    """A fermion halo block (the master's scatter view and, on the ranks, the
    ``p`` and ``h`` blocks) has a ghost shell of width 1 along each split
    axis and none along the others; the apply on it is the single-domain
    reference kernel's bytes, and ``cg_spmd`` the virtual backend's."""
    grid = RankGrid(dims)
    single = WilsonDirac(gauge, 0.3, kernel="reference")
    b = random_fermion(LATTICE, rng=17)
    want = cg_spmd(DecomposedWilsonDirac(gauge, 0.3, VirtualComm(grid)), b, tol=1e-6)
    with make_comm(grid, backend, **COMM_KW) as comm:
        op = DecomposedWilsonDirac(gauge, 0.3, comm)
        local = op.decomp.local_shape
        shape = tuple(n + 2 * (d > 1) for n, d in zip(local, dims)) + (4, 3)
        assert [h.data.shape for h in op._psi_halos] == [shape] * grid.nranks
        assert op.apply(psi).tobytes() == single.apply(psi).tobytes()
        assert np.array_equal(op.apply_dagger(psi), single.apply_dagger(psi))
        got = cg_spmd(op, b, tol=1e-6)
        if backend != "virtual":
            assert comm._blocks[op._psi_key][0] == comm._blocks[op._hop_key][0] == shape
    assert got.history == want.history and got.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("backend", BLOCK_BACKENDS)
def test_rank_solve_hops_the_search_direction_where_it_lives(backend, gauge, monkeypatch):
    """Every iteration's apply on the ranks reads ``p`` in the interior of
    the fermion halo block; only a guard's true residual copies ``x`` into
    the second halo block.  The ranks fork after the count is patched in
    and add to one shared array: [in place, copied]."""
    from repro.guard.policy import GuardPolicy
    from repro.solvers import spmd

    paths = mp.get_context("fork").Array("i", 2)
    apply_into = spmd._RankNormal.apply_into

    def counted(self, v, out):
        with paths.get_lock():
            paths[0 if v is self._p else 1] += 1
        return apply_into(self, v, out)

    monkeypatch.setattr(spmd._RankNormal, "apply_into", counted)
    b = random_fermion(LATTICE, rng=17)
    with make_comm((2, 1, 1, 1), backend, start_method="fork", **COMM_KW) as comm:
        op = DecomposedWilsonDirac(gauge, 0.3, comm)
        off = cg_spmd(op, b, tol=1e-6, max_iter=100, guard="off")
        assert paths[:] == [comm.nranks * off.iterations, 0]
        paths[:] = [0, 0]
        heal = GuardPolicy(level="heal", true_residual_interval=4)
        res = cg_spmd(op, b, tol=1e-6, max_iter=100, guard=heal)
    assert res.guard_events == [] and res.operator_applies > res.iterations
    assert paths[:] == [comm.nranks * res.iterations,
                        comm.nranks * (res.operator_applies - res.iterations)]


@pytest.mark.parametrize("phases", PHASES)
class TestSpmdIsTheOneRecurrence:
    """``cg_spmd`` is ``cg``'s guarded core with the rank-ordered inner
    product swapped in: same iterates where the reduction order is the
    same, same counts everywhere, and the core's apply accounting."""

    def _single_domain(self, gauge, b, phases):
        dirac = WilsonDirac(gauge, 0.3, phases=phases)
        return dirac, cg(
            dirac.normal_op(), dirac.apply_dagger(b), tol=1e-6, max_iter=100, guard="off"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_rank_grid_equals_cg_on_the_normal_operator(self, backend, phases, gauge):
        b = random_fermion(LATTICE, rng=17)
        _, want = self._single_domain(gauge, b, phases)
        with make_comm((1, 1, 1, 1), backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.3, comm, phases=phases)
            got = cg_spmd(op, b, tol=1e-6, max_iter=100, guard="off")
        assert got.converged and got.label == "cg_spmd"
        assert got.iterations == want.iterations
        assert got.history == want.history
        assert np.array_equal(got.x, want.x)

    @pytest.mark.parametrize("backend, dims", [
        ("virtual", (1, 1, 1, 1)), ("virtual", (2, 1, 1, 1)), ("virtual", (1, 2, 1, 1)),
        ("virtual", (2, 2, 1, 1)), ("virtual", (4, 1, 1, 1)), ("shm", (2, 1, 1, 1)),
    ])
    def test_counts_and_accounting_on_every_grid(self, backend, dims, phases, gauge):
        b = random_fermion(LATTICE, rng=17)
        dirac, want = self._single_domain(gauge, b, phases)
        with make_comm(dims, backend, **COMM_KW) as comm:
            op = DecomposedWilsonDirac(gauge, 0.3, comm, phases=phases)
            comm.trace.clear()
            got = cg_spmd(op, b, tol=1e-6, max_iter=100, guard="off")
            collectives = sum(isinstance(e, CollectiveEvent) for e in comm.trace.events)
        assert got.iterations == want.iterations
        # |M^dag b|^2, |r0|^2 and the closing |b|^2; pAp and the new r2 per iteration.
        assert collectives == 2 * got.iterations + 3
        # The normal operator the core was handed is what is counted
        # (it read 0 applies / 0 flops while the loop was a private copy).
        assert got.operator_applies == got.iterations == want.operator_applies
        assert got.flops == got.operator_applies * 2 * op.flops_per_apply == want.flops
        assert f"{got.operator_applies} op applies" in got.summary()
        assert got.residual == pytest.approx(
            np.linalg.norm(b - dirac.apply(got.x)) / np.linalg.norm(b), rel=1e-6
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestContextProtocol:
    def test_close_is_idempotent_and_context_safe(self, backend):
        with make_comm((1, 1, 1, 1), backend, **COMM_KW) as comm:
            assert comm.allreduce_sum([1.0]) == 1.0
        comm.close()
        comm.close()


class TestOneMasterClass:
    #: What a transport may define: byte moving, spawn/rendezvous, teardown.
    HOOKS = {
        "name", "ships_payloads", "__init__", "_rendezvous",
        "_send", "_recv", "_new_block", "_write_blocks", "_sever", "_release",
    }

    def test_transports_define_only_hooks(self):
        def public(cls):
            return {n for n in dir(cls) if not n.startswith("_")}

        for cls in (ShmComm, TcpComm):
            assert issubclass(cls, RankPoolComm)
            assert public(cls) == public(RankPoolComm), cls.__name__
            own = set(vars(cls)) - {"__module__", "__doc__"}
            assert own <= self.HOOKS, (cls.__name__, own - self.HOOKS)
            assert {"_send", "_recv", "_release"} <= own, cls.__name__

    def test_tuple_grid_is_coerced_by_the_base(self):
        with ShmComm((1, 1, 1, 1), **COMM_KW) as comm:
            assert comm.grid == RankGrid((1, 1, 1, 1))


class TestRegistry:
    def test_always_available_backends_present(self):
        # A closed set: every registered transport runs in tier-1.
        assert available_comms() == ("shm", "tcp", "virtual")

    def test_default_is_virtual(self, monkeypatch):
        monkeypatch.delenv(COMM_ENV_VAR, raising=False)
        assert resolve_comm_name() == "virtual"
        assert isinstance(make_comm((1, 1, 1, 1)), VirtualComm)

    @pytest.mark.parametrize(
        "name,cls", [("shm", ShmComm), ("tcp", TcpComm)]
    )
    def test_env_selects_backend(self, monkeypatch, name, cls):
        monkeypatch.setenv(COMM_ENV_VAR, name)
        assert resolve_comm_name() == name
        with make_comm((1, 1, 1, 1)) as comm:
            assert isinstance(comm, cls)

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(COMM_ENV_VAR, "shm")
        assert resolve_comm_name("virtual") == "virtual"

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(ValueError, match="nosuchcomm") as err:
            resolve_comm_name("nosuchcomm")
        for known in available_comms():
            assert known in str(err.value)

    def test_removed_backend_is_unknown(self, monkeypatch):
        """``mpi`` left the registry: a ``ValueError`` naming the choices,
        as an argument and through the environment."""
        with pytest.raises(ValueError, match="'mpi'.*shm.*tcp.*virtual"):
            make_comm((1, 1, 1, 1), "mpi")
        monkeypatch.setenv(COMM_ENV_VAR, "mpi")
        with pytest.raises(ValueError, match="'mpi'.*shm.*tcp.*virtual"):
            make_comm((1, 1, 1, 1))
