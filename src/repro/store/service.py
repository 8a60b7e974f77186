"""The measurement service: store-backed, cache-fronted, queue-batched.

:class:`MeasurementService` is the request path the "millions of users"
north star needs: a request names a stored configuration (by content key),
an observable, and physics parameters; the service answers from the
:class:`~repro.store.cache.MeasurementCache` when it can, and otherwise
loads the config from the :class:`~repro.store.ensemble.EnsembleStore`
(CRC-verified read), computes, journals, and answers.  The second
identical request is O(1): no gauge I/O, no operator application, no
solver iteration — the ``store/hits`` counter and the operator ``applies/*``
counters prove it.

Propagator-class observables route their Dirac solves through the
existing :class:`repro.serve.SolveQueue`: the 12 spin-colour point sources
of a propagator are *submitted* independently and *executed* as coalesced
multi-RHS batched solves, so a cold spectroscopy request costs one
link-streaming block solve rather than 12 sequential ones — and a warm
one costs nothing at all.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.measure.observables import gauge_record
from repro.serve import SolveQueue
from repro.store.cache import MeasurementCache, MeasurementRequest
from repro.store.ensemble import EnsembleStore

__all__ = ["OBSERVABLES", "MeasurementService", "queued_point_propagator"]


def queued_point_propagator(
    dirac,
    queue: SolveQueue,
    source_coord: tuple[int, int, int, int] = (0, 0, 0, 0),
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> np.ndarray:
    """The 12x12 point propagator with its solves batched through ``queue``.

    All 12 spin-colour sources are submitted before the flush, so they
    coalesce into ``ceil(12 / max_nrhs)`` multi-RHS solves.  Submission
    order is fixed (s0 outer, c0 inner), hence batch composition — and
    therefore every solution bit — is deterministic run to run.
    """
    from repro.fields import point_source

    lat = dirac.lattice
    futures = {}
    for s0 in range(4):
        for c0 in range(3):
            b = point_source(lat, source_coord, s0, c0)
            futures[s0, c0] = queue.submit(dirac, b, tol=tol, max_iter=max_iter)
    queue.flush()
    out = np.empty(lat.shape + (4, 3, 4, 3), dtype=np.complex128)
    for (s0, c0), future in futures.items():
        res = future.result(timeout=600)
        if not res.converged:
            raise RuntimeError(
                f"propagator solve (s0={s0}, c0={c0}) failed: {res.summary()}"
            )
        out[..., s0, c0] = res.x
    return out


# -- observables ---------------------------------------------------------------


def _correlators(service, gauge, params):
    from repro.dirac.wilson import WilsonDirac
    from repro.measure.correlator import pion_correlator, rho_correlator

    dirac = WilsonDirac(gauge, float(params.get("quark_mass", 0.1)))
    prop = queued_point_propagator(
        dirac,
        service.queue,
        source_coord=tuple(params.get("source_coord", (0, 0, 0, 0))),
        tol=float(params.get("tol", 1e-8)),
        max_iter=int(params.get("max_iter", 5000)),
    )
    return pion_correlator(prop), rho_correlator(prop)


def _obs_correlators(service, gauge, params) -> dict:
    """Pion/rho correlators (no fits) — robust on any temporal extent."""
    c_pi, c_rho = _correlators(service, gauge, params)
    return {
        "pion_corr": [float(v) for v in np.real(c_pi)],
        "rho_corr": [float(v) for v in np.real(c_rho)],
    }


def _obs_spectrum(service, gauge, params) -> dict:
    """Pion/rho masses from cosh fits over queue-batched propagator solves."""
    from repro.measure.fitting import fit_cosh

    c_pi, c_rho = _correlators(service, gauge, params)
    nt = gauge.lattice.nt
    window = params.get("fit_window")
    tmin, tmax = window if window else (max(1, nt // 8), nt // 2 - 1)
    pion = fit_cosh(c_pi, tmin, tmax)
    rho = fit_cosh(c_rho, tmin, tmax)
    return {
        "pion_mass": float(pion.mass),
        "rho_mass": float(rho.mass),
        "pion_corr": [float(v) for v in np.real(c_pi)],
        "rho_corr": [float(v) for v in np.real(c_rho)],
    }


#: Named observables servable against a stored configuration.
OBSERVABLES = {
    "plaquette": lambda service, gauge, params: gauge_record(gauge, "plaquette"),
    "observables": lambda service, gauge, params: gauge_record(gauge, "observables"),
    "correlators": _obs_correlators,
    "spectrum": _obs_spectrum,
}


class MeasurementService:
    """Cached measurement serving over a content-addressed ensemble store."""

    def __init__(
        self,
        store: EnsembleStore,
        cache: MeasurementCache | None = None,
        cache_root: str | Path | None = None,
        queue: SolveQueue | None = None,
        guard=None,
    ) -> None:
        self.store = store
        if cache is None:
            cache = MeasurementCache(
                Path(cache_root) if cache_root is not None else store.root / "cache"
            )
        self.cache = cache
        self.queue = queue if queue is not None else SolveQueue()
        self.guard = guard

    def _env(self) -> dict:
        """The bytes-relevant environment knobs baked into every request key."""
        from repro.kernels import resolve_kernel_name

        return {"kernel": resolve_kernel_name(), "dtype": "complex128"}

    def request_for(
        self, config_key: str, observable: str, params: dict | None = None
    ) -> MeasurementRequest:
        """Build the keyed request (and its invalidation tags) for a config."""
        if observable not in OBSERVABLES:
            raise ValueError(
                f"unknown observable {observable!r}; available: {sorted(OBSERVABLES)}"
            )
        entry = self.store.entries().get(config_key, {})
        prov = entry.get("provenance", {})
        return MeasurementRequest(
            config_key=config_key,
            observable=observable,
            params=dict(params or {}),
            env=self._env(),
            tags={
                "source": prov.get("source"),
                "trajectory": prov.get("trajectory", -1),
            },
        )

    def request(
        self, config_key: str, observable: str, params: dict | None = None
    ):
        """Serve one measurement; returns ``(values, hit)``."""
        req = self.request_for(config_key, observable, params)

        def compute() -> dict:
            gauge, _meta = self.store.get(config_key, guard=self.guard)
            return OBSERVABLES[observable](self, gauge, req.params)

        return self.cache.get_or_compute(req, compute)

    def serve_ensemble(
        self, observable: str, params: dict | None = None
    ) -> dict[str, dict]:
        """Serve ``observable`` across every stored config; key -> values."""
        return {
            key: self.request(key, observable, params)[0] for key in self.store.keys()
        }

    def sync_campaign_faults(self, campaign_dir: str | Path) -> int:
        """Evict cache entries invalidated by a campaign's fault journal."""
        return self.cache.apply_fault_journal(campaign_dir)
