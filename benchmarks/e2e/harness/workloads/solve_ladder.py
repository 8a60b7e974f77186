"""solve_ladder — four single-RHS solver paths on one thermalised config.

Why it exists: the single-RHS ``apply_into`` path, the fp32 tier and the
masked even-odd Schur operator do the work; batching (beyond width 1),
the store and comm do none.  It uses the same ``dirac``/``kernels`` layer
as ``serve_propagator`` the other way round, so a batch-side gain that
costs nrhs=1 (or the reverse) shows here.

16x4^3, not 8^4: one pass over the four paths costs 9.4 s at 8^4, so a run
held one or two samples per path and its numbers moved 10-20 % between runs
of one commit.  Loosening the tolerance does not buy the time back (38 of
the 79 iterations go on the first three decades, and the mixed path needs a
target below fp32), so the volume was cut: at 1024 sites a run holds six or
seven samples per path, with the same per-site work and iteration count.
"""

from __future__ import annotations

from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, random_fermion
from repro.lattice import Lattice4D
from repro.solvers import solve_wilson, solve_wilson_eo

from .. import micro
from .base import (
    Op,
    OpType,
    Workload,
    make_queue,
    queue_metrics,
    reference_residual,
    thermalised_links,
    trace_wilson,
)

__all__ = ["SolveLadder"]

BETA = 5.7
MASS = 0.0
TOL = 1e-8
N_SOURCES = 4


class SolveLadder(Workload):
    name = "solve_ladder"
    op_types = (
        OpType("solve_cg", N_SOURCES, "solve_cg_s"),
        OpType("solve_mixed", N_SOURCES, "solve_mixed_s"),
        OpType("solve_eo", N_SOURCES, "solve_eo_s"),
        OpType("solve_queue1", N_SOURCES, "solve_queue1_s"),
    )
    setup_repeats = 5

    def generate(self, seed: int, smoke: bool) -> dict:
        shape = (4, 4, 4, 4) if smoke else (16, 4, 4, 4)
        rng = np.random.default_rng([seed, 2])
        u = thermalised_links(shape, BETA, 3 if smoke else 10, rng)
        lattice = Lattice4D(shape)
        sources = np.stack([random_fermion(lattice, rng=rng) for _ in range(N_SOURCES)])
        return {"shape": shape, "u": u, "sources": sources}

    def setup(self, inputs: dict, tracer, workdir: Path):
        st = SimpleNamespace()
        st.tracer = tracer
        st.gauge = GaugeField(Lattice4D(inputs["shape"]), inputs["u"])
        st.sources = inputs["sources"]
        st.dirac = WilsonDirac(st.gauge, MASS)
        st.eo = EvenOddWilson(st.gauge, MASS)
        st.queue = make_queue(tracer)
        if tracer.enabled:
            trace_wilson(tracer, st.dirac)
            tracer.wrap_kernel(st.eo, "kernels.hop")
            make_schur = st.eo.schur_operator

            def traced_schur():
                schur = make_schur()
                for attr in ("apply", "apply_into", "apply_dagger", "apply_dagger_into"):
                    tracer.wrap(schur, attr, f"dirac.schur_{attr}", "dirac")
                return schur

            st.eo.schur_operator = traced_schur
        # Warm-up: one apply of every operator the solves will drive, so
        # workspace arenas, shift tables and link caches exist before timing.
        b = st.sources[0]
        out = np.empty_like(b)
        st.dirac.apply_into(b, out)
        st.dirac.apply_dagger_into(b, out)
        b32 = b.astype(np.complex64)
        st.dirac.astype(np.complex64).apply_into(b32, np.empty_like(b32))
        st.eo.schur_operator().apply_into(b, out)
        st.dirac.apply_batch_into(b[None], out[None])
        return st

    def schedule(self, st):
        tracer = st.tracer
        reference = WilsonDirac(st.gauge, MASS, kernel="reference")

        def verified(b):
            def check(res) -> bool:
                return bool(res.converged) and reference_residual(reference, res.x, b) <= 10 * TOL

            return check

        def queue1(b):
            future = st.queue.submit(st.dirac, b, tol=TOL)
            st.queue.flush()
            return future.result(timeout=600)

        for b in cycle(st.sources):
            check = verified(b)
            yield Op(
                "solve_cg",
                lambda b=b: tracer.call(
                    "solvers.solve_wilson", "solvers", solve_wilson, st.dirac, b, tol=TOL
                ),
                check,
            )
            yield Op(
                "solve_mixed",
                lambda b=b: tracer.call(
                    "solvers.solve_wilson_mixed", "solvers",
                    solve_wilson, st.dirac, b, tol=TOL, mixed=True,
                ),
                check,
            )
            yield Op(
                "solve_eo",
                lambda b=b: tracer.call(
                    "solvers.solve_wilson_eo", "solvers", solve_wilson_eo, st.eo, b, tol=TOL
                ),
                check,
            )
            yield Op("solve_queue1", lambda b=b: queue1(b), check)

    def counts(self, st, run) -> dict:
        first = run.first
        return {
            "solvers.cg_iters": first["solve_cg"].iterations,
            "solvers.cg_applies": first["solve_cg"].operator_applies,
            "solvers.mixed_outer_iters": first["solve_mixed"].iterations,
            "solvers.mixed_inner_iters": first["solve_mixed"].inner_iterations,
            "solvers.eo_iters": first["solve_eo"].iterations,
            "solvers.queue1_iters": first["solve_queue1"].iterations,
        }

    def micro(self, inputs, st, workdir) -> dict:
        out = micro.kernel_suite(st.gauge, MASS)
        out.update(micro.io_suite(st.gauge, workdir))
        return out

    def layer_metrics(self, st, run) -> dict:
        first = run.first
        out = dict(self.counts(st, run))
        del out["solvers.cg_applies"], out["solvers.queue1_iters"]
        out["solvers.cg_self_s"] = run.self_per_op("solve_cg", "solvers.solve_wilson")
        out["solvers.mixed_self_s"] = run.self_per_op("solve_mixed", "solvers.solve_wilson_mixed")
        out["solvers.eo_self_s"] = run.self_per_op("solve_eo", "solvers.solve_wilson_eo")
        out["solvers.block_cg_self_s"] = run.self_per_op(
            "solve_queue1", "solvers.solve_wilson_batch")
        out["solvers.applies_per_solve"] = first["solve_cg"].operator_applies
        # Every Wilson apply of a solve_cg op drives exactly one kernel call;
        # two per CG iteration are "useful", the rest is rhs prep and verify.
        kernel_calls = run.calls("solve_cg", "kernels.hop") / run.agg["solve_cg"]["ops"]
        out["solvers.useful_apply_ratio"] = 2.0 * first["solve_cg"].iterations / kernel_calls
        out["solvers.sustained_gflops"] = (
            first["solve_cg"].flops / run.samples["solve_cg"][0] / 1e9
        )
        full = run.mean_total("solve_cg", "dirac.apply_into")
        schur = run.mean_total("solve_eo", "dirac.schur_apply_into")
        out["dirac.apply_into_self_s"] = run.mean_self("solve_cg", "dirac.apply_into")
        out["dirac.apply_batch_self_s"] = run.mean_self("solve_queue1", "dirac.apply_batch_into")
        out["dirac.eo_schur_apply_s"] = schur
        out["dirac.eo_schur_over_full"] = schur / full
        out.update(queue_metrics(run, "solve_queue1"))
        return out
