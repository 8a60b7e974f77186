"""serve_propagator — cold and warm measurement requests against a store.

Why it exists: the ROADMAP's first path, store I/O -> queue -> ``block_cg``
-> ``apply_batch_into`` -> kernel -> contraction.  The *batched* (nrhs=12)
apply and ``block_cg`` do most of the work; single-RHS code and ``comm`` do
none.  Cold requests (compute plus an fsynced journal write) sit beside
warm ones (a journal read), so ``store`` is used two ways.
"""

from __future__ import annotations

import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, point_source
from repro.lattice import Lattice4D
from repro.measure.correlator import pion_correlator, rho_correlator
from repro.store import EnsembleStore, MeasurementCache, MeasurementService

from .. import micro
from .base import (
    Op, OpType, Workload, make_queue, queue_metrics, reference_residual, sweep,
)

__all__ = ["ServePropagator"]

BETA = 5.7
QUARK_MASS = 0.3
TOL = 1e-8
N_CONFIGS = 4
N_SOURCES = 4  # source points per config in the fixed op list
GAUGE_PER_ROUND = 3  # cold ``observables`` requests between correlator requests
WARM_PASS = 56  # warm requests per warm pass (16 + 40, the fixed list's size)


class ServePropagator(Workload):
    name = "serve_propagator"
    op_types = (
        OpType("request_cold", N_CONFIGS * N_SOURCES, "request_cold_s"),
        OpType("request_gauge", 40, "request_gauge_s"),
        OpType("warm_pass", 20, "store.warm_pass_s"),
    )
    setup_repeats = 5

    def generate(self, seed: int, smoke: bool) -> dict:
        shape = (4, 4, 4, 4) if smoke else (8, 4, 4, 4)
        rng = np.random.default_rng([seed, 1])
        gauge = GaugeField.hot(Lattice4D(shape), rng=rng)
        sweep(gauge, BETA, 4 if smoke else 10, rng)
        configs = []
        for _ in range(N_CONFIGS):
            sweep(gauge, BETA, 2, rng)
            gauge.reunitarize()
            configs.append(gauge.u.copy())
        # Distinct source points, so every correlator request is a cache miss.
        sites = rng.permutation(int(np.prod(shape)))[:64]
        coords = np.stack(np.unravel_index(sites, shape), axis=1)
        return {"shape": shape, "configs": np.stack(configs), "source_coords": coords}

    # -- set-up ----------------------------------------------------------------

    def setup(self, inputs: dict, tracer, workdir: Path):
        st = SimpleNamespace()
        st.tracer = tracer
        st.lattice = Lattice4D(inputs["shape"])
        st.coords = [tuple(int(v) for v in c) for c in inputs["source_coords"]]
        st.solved = []  # (operator, B, results) of the most recent batch solves
        st.store = EnsembleStore(workdir / "store")
        st.keys = []
        for i, u in enumerate(inputs["configs"]):
            st.keys.append(
                st.store.put(
                    GaugeField(st.lattice, u),
                    {
                        "action": "wilson",
                        "couplings": {"beta": BETA},
                        "trajectory": i,
                        "rng": {"stream": "e2e-benchmark", "index": i},
                    },
                )
            )
        st.queue = make_queue(tracer, on_results=lambda *rec: st.solved.append(rec))
        st.service = MeasurementService(st.store, queue=st.queue)
        tracer.wrap(st.service, "request", "service.request", None)
        tracer.wrap(st.store, "get", "store.get", "store")
        tracer.wrap(st.service.cache, "lookup", "store.cache_lookup", "store")
        tracer.wrap(st.service.cache, "put", "store.cache_put", "store")
        st.cold_values = {}  # (key, observable, params-json) -> values, for warm checks
        st.tag = 0
        # Warm-up: one request of each kind.  The correlator one is solved to
        # a loose tolerance: it imports, sizes the nrhs=12 arenas and builds
        # the link caches like a real request, in a fifth of the iterations.
        st.service.request(
            st.keys[0], "correlators",
            {"quark_mass": QUARK_MASS, "tol": 1e-2, "source_coord": list(st.coords[-1])},
        )
        st.service.request(st.keys[0], "observables", {"warmup": True})
        st.service.request(st.keys[0], "observables", {"warmup": True})
        st.solved.clear()
        return st

    # -- the op list -------------------------------------------------------------

    def _remember(self, st, key, observable, params, values) -> None:
        st.cold_values[(key, observable, repr(sorted(params.items())))] = (params, values)

    def schedule(self, st):
        references = {}

        def reference_for(operator) -> WilsonDirac:
            ref = references.get(id(operator.gauge))
            if ref is None:
                ref = WilsonDirac(operator.gauge, operator.mass, kernel="reference")
                references[id(operator.gauge)] = ref
            return ref

        def cold(key, coord):
            params = {"quark_mass": QUARK_MASS, "tol": TOL, "source_coord": list(coord)}

            def fn():
                st.solved.clear()
                return st.service.request(key, "correlators", params)

            def check(reply) -> bool:
                values, hit = reply
                self._remember(st, key, "correlators", params, values)
                solves = [
                    (op, B[i], res)
                    for op, B, results in st.solved
                    for i, res in enumerate(results)
                ]
                if not hasattr(st, "first_solves"):
                    st.first_solves = st.solved[0]
                ok = (not hit) and len(solves) == 12
                for operator, b, res in solves:
                    ok = ok and bool(res.converged)
                    ok = ok and reference_residual(reference_for(operator), res.x, b) <= 10 * TOL
                return ok and all(np.isfinite(values["pion_corr"]))

            return Op("request_cold", fn, check)

        def gauge_request(key):
            st.tag += 1
            params = {"tag": st.tag}

            def check(reply) -> bool:
                values, hit = reply
                self._remember(st, key, "observables", params, values)
                return (not hit) and 0.0 < values["plaquette"] < 1.0

            return Op(
                "request_gauge",
                lambda: st.service.request(key, "observables", params), check,
            )

        def warm_pass():
            cached = list(st.cold_values.items())
            todo = [cached[i % len(cached)] for i in range(WARM_PASS)]

            def fn():
                return [
                    st.service.request(key, observable, params)
                    for (key, observable, _), (params, _values) in todo
                ]

            def check(replies) -> bool:
                return all(
                    hit and values == cold
                    for (values, hit), (_k, (_p, cold)) in zip(replies, todo)
                )

            return Op("warm_pass", fn, check)

        round_no = 0
        while True:
            key = st.keys[round_no % N_CONFIGS]
            coord = st.coords[(round_no // N_CONFIGS) % len(st.coords)]
            yield cold(key, coord)
            for _ in range(GAUGE_PER_ROUND):
                yield gauge_request(key)
            yield warm_pass()
            round_no += 1

    # -- checks, counts, layers --------------------------------------------------

    def final_checks(self, st, run):
        out = []
        if st.tracer.enabled:
            warm = run.first_counters["warm_pass"]
            out.append(
                (
                    "warm pass touches no operator",
                    warm["applies"] == 0 and warm.get("store/hits", 0) == WARM_PASS,
                    f"applies={warm['applies']} hits={warm.get('store/hits', 0)}",
                )
            )
        return out

    def counts(self, st, run) -> dict:
        _, _, results = st.first_solves
        return {
            "solvers.block_iters": max(r.iterations for r in results),
            "solvers.block_iters_sum": sum(r.iterations for r in results),
            "serve.rhs_per_cold_request": len(results),
        }

    def micro(self, inputs, st, workdir) -> dict:
        gauge = GaugeField(st.lattice, inputs["configs"][0])
        out = micro.kernel_suite(gauge, QUARK_MASS)
        out.update(micro.io_suite(gauge, workdir))
        out["measure.source_s"] = micro.p50_of(
            lambda: [
                point_source(st.lattice, st.coords[0], s, c) for s in range(4) for c in range(3)
            ],
            5,
        )
        return out

    def layer_metrics(self, st, run) -> dict:
        out = {"solvers.block_iters": self.counts(st, run)["solvers.block_iters"]}
        out["solvers.block_cg_self_s"] = run.self_per_op(
            "request_cold", "solvers.solve_wilson_batch")
        out["dirac.apply_batch_self_s"] = run.mean_self("request_cold", "dirac.apply_batch_into")
        out.update(queue_metrics(run, "request_cold"))
        out["store.get_s"] = run.mean_total("request_gauge", "store.get")
        out["store.get_bytes"] = st.store.path_for(st.keys[0]).stat().st_size
        out["store.cache_put_s"] = run.mean_total("request_gauge", "store.cache_put")
        out["store.cache_lookup_us"] = 1e6 * run.mean_total("warm_pass", "store.cache_lookup")
        out["store.warm_request_us"] = 1e6 * run.mean_total("warm_pass", "service.request")
        t0 = time.perf_counter()
        reopened = len(MeasurementCache(st.service.cache.root))
        out["store.cache_open_s"] = time.perf_counter() - t0
        if reopened != len(st.service.cache):
            raise RuntimeError("journal replay disagrees with the live cache")
        out["store.hits"] = sum(c.get("store/hits", 0) for c in run.first_counters.values())
        out["store.misses"] = sum(c.get("store/misses", 0) for c in run.first_counters.values())
        # Contraction cost, on the propagator the first cold request solved.
        _, _, results = st.first_solves
        prop = np.empty(st.lattice.shape + (4, 3, 4, 3), dtype=np.complex128)
        for i, res in enumerate(results):
            prop[..., i // 3, i % 3] = res.x
        out["measure.contract_s"] = micro.p50_of(
            lambda: (pion_correlator(prop), rho_correlator(prop)), 5)
        return out
