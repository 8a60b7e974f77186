"""Pure-gauge observables: plaquette, Polyakov loop, Wilson loops."""

from __future__ import annotations

import numpy as np

from repro import su3
from repro.fields import GaugeField
from repro.lattice import shift
from repro.loops import average_plaquette as _avg_plaq_array

__all__ = ["average_plaquette", "polyakov_loop", "wilson_loop", "gauge_observables", "gauge_record"]


def average_plaquette(gauge: GaugeField | np.ndarray) -> float:
    """``<(1/3) Re tr P>`` over sites and planes; accepts a field or array."""
    u = gauge.u if isinstance(gauge, GaugeField) else gauge
    return _avg_plaq_array(u)


def polyakov_loop(gauge: GaugeField) -> complex:
    """Volume-averaged Polyakov loop ``<(1/3) tr prod_t U_t(t, x)>``.

    The order parameter of the deconfinement transition: ~0 in the confined
    phase, O(1) deconfined.
    """
    u_t = gauge.u[0]
    nt = gauge.lattice.nt
    line = u_t[0]
    for t in range(1, nt):
        line = su3.mul(line, u_t[t])
    return complex(np.mean(su3.trace(line)) / su3.NC)


def wilson_loop(gauge: GaugeField, r: int, t: int, mu: int = 3, nu: int = 0) -> float:
    """``<(1/3) Re tr W(r x t)>`` in the (mu, nu) plane (default space-time).

    The static quark potential is ``V(r) = -lim_t log[W(r,t+1)/W(r,t)]``.
    """
    if r < 1 or t < 1:
        raise ValueError(f"loop extents must be >= 1, got ({r}, {t})")
    if mu == nu:
        raise ValueError("Wilson loop needs two distinct directions")
    u = gauge.u

    def _line(start_dir: int, length: int) -> np.ndarray:
        """Product of ``length`` links along ``start_dir`` starting at x."""
        line = u[start_dir]
        for k in range(1, length):
            line = su3.mul(line, shift(u[start_dir], start_dir, k))
        return line

    side_r = _line(mu, r)           # x -> x + r mu
    side_t = _line(nu, t)           # x -> x + t nu
    top = shift(side_t, mu, r)      # from x + r mu, along nu
    back = shift(side_r, nu, t)     # from x + t nu, along mu
    w = su3.mul_dag(su3.mul(side_r, top), su3.mul(side_t, back))
    return float(np.mean(su3.re_trace(w)) / su3.NC)


def gauge_observables(gauge: GaugeField) -> dict[str, float]:
    """The standard per-configuration measurement bundle."""
    poly = polyakov_loop(gauge)
    return {
        "plaquette": average_plaquette(gauge),
        "polyakov_re": poly.real,
        "polyakov_abs": abs(poly),
        "unitarity_violation": gauge.unitarity_violation(),
    }


def gauge_record(gauge: GaugeField, name: str) -> dict[str, float]:
    """The record of the gauge measurement ``name`` that campaign ledgers, the
    measurement cache and the fleet store: ``"plaquette"`` alone, or
    ``"observables"``, the :func:`gauge_observables` bundle."""
    if name == "plaquette":
        return {"plaquette": float(average_plaquette(gauge))}
    return {k: float(v) for k, v in gauge_observables(gauge).items()}
