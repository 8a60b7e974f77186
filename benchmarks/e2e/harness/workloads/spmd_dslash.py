"""spmd_dslash — the 2-rank shared-memory Dslash and the SPMD solver.

Why it exists: ``comm`` (spawn, command/ack, halo slabs, master-side
reductions) does most of the work; the store and batching do none.  16^4
because smaller volumes are dominated by run-to-run scheduling noise.
The rank-resident SPMD work lands here.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.comm import make_comm
from repro.dirac.decomposed import DecomposedWilsonDirac
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.machine import strong_scaling
from repro.machine.calibrate import host_comm_spec
from repro.solvers import cg_spmd

from .. import micro
from .base import Op, OpType, Workload, reference_residual

__all__ = ["SpmdDslash"]

MASS = 0.3
# Looser than the 1e-8 of the single-domain solves: a 16^4 solve costs 1.2 s
# before its first iteration and 0.3 s per iteration, so to 1e-8 (34
# iterations) a run would hold one.  Eight iterations run the same recurrence
# (two applies, two reductions each), and a run holds five solves.
TOL = 1e-2
GRID = (2, 1, 1, 1)
APPLIES_PER_ROUND = 4


class SpmdDslash(Workload):
    name = "spmd_dslash"
    op_types = (
        OpType("spmd_apply", 100, "spmd_dslash_s"),
        OpType("spmd_solve", 2, "spmd_solve_s"),
    )
    # Three, not five: a set-up here faults in fresh shared segments, which on
    # a lazily backed VM takes 1.1 s or 4 s for the same work; with two modes
    # more repeats steady the median little and cost 2-4 s each.
    setup_repeats = 3

    def generate(self, seed: int, smoke: bool) -> dict:
        # A Haar-random 16^4 field costs ~9 s to draw; tiling a hot 8^4 one
        # is a valid periodic 16^4 configuration with the same memory
        # footprint, halo sizes and (disordered) links at 1/16 of the cost.
        cell = (4, 4, 4, 4) if smoke else (8, 8, 8, 8)
        shape = tuple(2 * n for n in cell)
        rng = np.random.default_rng([seed, 3])
        u = np.tile(GaugeField.hot(Lattice4D(cell), rng=rng).u, (1, 2, 2, 2, 2, 1, 1))
        psi = random_fermion(Lattice4D(shape), rng=rng)
        return {"shape": shape, "u": np.ascontiguousarray(u), "psi": psi}

    def setup(self, inputs: dict, tracer, workdir: Path):
        st = SimpleNamespace()
        st.tracer = tracer
        st.gauge = GaugeField(Lattice4D(inputs["shape"]), inputs["u"])
        st.psi = inputs["psi"]
        t0 = time.perf_counter()
        st.comm = make_comm(GRID, "shm")
        st.spawn_s = time.perf_counter() - t0
        try:
            st.op = DecomposedWilsonDirac(st.gauge, MASS, st.comm)
            tracer.wrap(st.comm, "run_dslash", "comm.run_dslash", "comm")
            tracer.wrap(st.comm, "allreduce_sum", "comm.allreduce_sum", "comm")
            tracer.wrap(st.comm, "exchange", "comm.exchange", "comm")
            tracer.wrap(st.op, "apply", "dirac.decomposed_apply", "dirac")
            # Warm-up of both op types: workers attach and build their stencil
            # arenas; one solver iteration faults in every temporary of the
            # recurrence, so the first timed solve does not pay for the heap.
            st.op.apply(st.psi)
            cg_spmd(st.op, st.psi, tol=TOL, max_iter=1)
        except BaseException:
            st.comm.close()
            raise
        return st

    def teardown(self, st) -> None:
        st.comm.close()

    def schedule(self, st):
        # The oracle: the single-domain operator on the same inputs.
        single = WilsonDirac(st.gauge, MASS)
        expected = single.apply(st.psi)
        reference = WilsonDirac(st.gauge, MASS, kernel="reference")

        # The comm's event log is read and emptied in the untimed checks, so
        # each op's events are its own and no timed region scans the log.
        trace = st.comm.trace
        trace.clear()

        def check_apply(out) -> bool:
            st.apply_trace = (trace.message_count(), trace.total_halo_bytes())
            trace.clear()
            return np.array_equal(out, expected)

        def solve():
            return st.tracer.call("solvers.cg_spmd", "solvers", cg_spmd, st.op, st.psi, tol=TOL)

        def check_solve(res) -> bool:
            st.solve = (res.iterations, len(trace.collective_events()))
            trace.clear()
            return bool(res.converged) and reference_residual(reference, res.x, st.psi) <= 10 * TOL

        while True:
            for _ in range(APPLIES_PER_ROUND):
                yield Op("spmd_apply", lambda: st.op.apply(st.psi), check_apply)
            yield Op("spmd_solve", solve, check_solve)

    def counts(self, st, run) -> dict:
        iters, collectives = st.solve
        return {
            "solvers.cg_spmd_iters": iters,
            "comm.messages_per_apply": st.apply_trace[0],
            "comm.halo_bytes_per_apply": st.apply_trace[1],
            # two reductions per iteration plus a fixed prologue/epilogue
            "comm.allreduces_beyond_2_per_iter": collectives - 2 * iters,
        }

    def micro(self, inputs, st, workdir) -> dict:
        out = micro.kernel_suite(st.gauge, MASS, repeats=2)
        out.update(micro.io_suite(st.gauge, workdir, repeats=1))
        psi = st.psi

        def apply_p50(grid, backend, repeats) -> tuple[float, float]:
            """p50 apply seconds on a fresh comm, and what closing it cost."""
            with make_comm(grid, backend) as comm:
                op = DecomposedWilsonDirac(st.gauge, MASS, comm)
                seconds = micro.p50_of(lambda: op.apply(psi), repeats, warmup=1)
                t0 = time.perf_counter()
            return seconds, time.perf_counter() - t0

        # close_s: stop the workers, unlink the segments of the 1-rank shm comm
        out["comm.apply_1r_s"], out["comm.close_s"] = apply_p50((1, 1, 1, 1), "shm", 5)
        out["comm.virtual_apply_2r_s"], _ = apply_p50(GRID, "virtual", 3)
        out["comm.tcp_apply_2r_s"], _ = apply_p50(GRID, "tcp", 3)
        spec = host_comm_spec("shm")
        points = strong_scaling(spec, st.gauge.lattice.shape, [1, 2])
        out["machine.model_efficiency_2r"] = points[-1].efficiency
        return out

    def layer_metrics(self, st, run) -> dict:
        counts = self.counts(st, run)
        iters = counts["solvers.cg_spmd_iters"]
        out = {
            "solvers.cg_spmd_iters": iters,
            "comm.messages_per_apply": counts["comm.messages_per_apply"],
            "comm.halo_bytes_per_apply": counts["comm.halo_bytes_per_apply"],
            "comm.allreduces_per_iter": st.solve[1] / iters,
            "comm.spawn_s": st.spawn_s,
            "comm.run_dslash_s": run.mean_total("spmd_apply", "comm.run_dslash"),
            "comm.allreduce_s": run.mean_total("spmd_solve", "comm.allreduce_sum"),
            "dirac.decomposed_master_self_s": run.mean_self(
                "spmd_apply", "dirac.decomposed_apply"),
            "solvers.cg_spmd_self_s": run.self_per_op("spmd_solve", "solvers.cg_spmd"),
        }
        # Efficiency is a layer metric, not end-to-end: t1 / (2 t2) gets
        # "worse" whenever a kernel change speeds the 1-rank path.
        t2 = statistics.median(run.samples["spmd_apply"])
        out["comm.efficiency_2r"] = run.micro["comm.apply_1r_s"] / (2.0 * t2)
        out["machine.model_minus_meas"] = (
            run.micro["machine.model_efficiency_2r"] - out["comm.efficiency_2r"]
        )
        return out
