"""E20 — ensemble store serving: cold-vs-warm measurement request latency.

The economics of memoised serving: generate a small heatbath ensemble,
ingest it into a content-addressed :class:`~repro.store.EnsembleStore`,
then serve every (config, observable) request twice through the
:class:`~repro.store.MeasurementService`.  The first pass is *cold* —
gauge I/O, propagator solves through the coalescing queue, contractions —
and the second is *warm*, answered entirely from the journaled
:class:`~repro.store.MeasurementCache`.  The ratio of the two is the
value of reuse; the ``store/hits|misses`` counters and the operator
``applies/*`` deltas prove the warm pass did no physics work at all.
"""

from __future__ import annotations

from repro.store import EnsembleStore, MeasurementService
from repro.telemetry import telemetry_mode
from repro.telemetry.registry import get_registry
from repro.util import Table, Timer

__all__ = ["e20_store"]


def e20_store(
    tmp_dir,
    shape: tuple[int, int, int, int] = (8, 4, 4, 4),
    beta: float = 5.6,
    n_configs: int = 3,
    therm: int = 4,
    separation: int = 2,
    seed: int = 11,
    observables: tuple = (
        ("plaquette", {}),
        ("observables", {}),
        ("correlators", {"quark_mass": 0.3, "tol": 1e-7}),
    ),
) -> tuple[Table, list[dict]]:
    """Cold/warm serving latency per observable over a small ensemble.

    ``tmp_dir`` hosts the generated ensemble, the store, and the cache
    journal.  Every row carries ``values_identical``: the warm values must
    be the cached bytes of the cold computation, equality is exact.
    """
    from pathlib import Path

    from repro.tools.generate_ensemble import generate_ensemble

    tmp_dir = Path(tmp_dir)
    store = EnsembleStore(tmp_dir / "store")
    generate_ensemble(
        shape, beta, n_configs, tmp_dir / "ens",
        therm=therm, separation=separation, seed=seed, verbose=False,
        store=store,
    )
    service = MeasurementService(store)
    rows = []
    with telemetry_mode("counters"):
        reg = get_registry()
        for observable, params in observables:
            c0 = dict(reg.counters())
            with Timer() as t:
                cold_values = service.serve_ensemble(observable, params)
            t_cold = t.elapsed
            c1 = dict(reg.counters())
            with Timer() as t:
                warm_values = service.serve_ensemble(observable, params)
            t_warm = t.elapsed
            c2 = dict(reg.counters())

            def delta(a, b, prefix):
                return sum(v - a.get(k, 0) for k, v in b.items() if k.startswith(prefix))

            rows.append(
                {
                    "observable": observable,
                    "n_requests": n_configs,
                    "cold_s": t_cold,
                    "warm_s": t_warm,
                    "cold_ms_per_req": t_cold / n_configs * 1e3,
                    "warm_ms_per_req": t_warm / n_configs * 1e3,
                    "speedup": t_cold / t_warm if t_warm > 0 else float("inf"),
                    "cold_hits": delta(c0, c1, "store/hits"),
                    "cold_misses": delta(c0, c1, "store/misses"),
                    "warm_hits": delta(c1, c2, "store/hits"),
                    "warm_misses": delta(c1, c2, "store/misses"),
                    "warm_applies": delta(c1, c2, "applies/"),
                    "values_identical": cold_values == warm_values,
                }
            )

    table = Table(
        f"E20 — cached measurement serving on {tuple(shape)} "
        f"(beta={beta:g}, {n_configs} configs)",
        [
            "observable",
            "cold ms/req",
            "warm ms/req",
            "speedup",
            "warm hits",
            "warm applies",
            "identical",
        ],
    )
    for r in rows:
        table.add_row(
            [
                r["observable"],
                r["cold_ms_per_req"],
                r["warm_ms_per_req"],
                r["speedup"],
                r["warm_hits"],
                r["warm_applies"],
                r["values_identical"],
            ]
        )
    return table, rows
