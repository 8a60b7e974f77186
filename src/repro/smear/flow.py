"""The Wilson (gradient) flow.

Integrates the flow equation ``dV/dt = Z(V) V`` with
``Z_mu(x) = -Ta[ V_mu(x) A_mu(x) ]`` (the Wilson-action gradient, the
plaquette force with scale -1) using Luscher's third-order Runge-Kutta
scheme, each stage a Cayley-Hamilton exponential times the links on
link planes.  The flow drives the field towards (locally) minimal
action, smoothing UV fluctuations at length scale ``sqrt(8t)``; the
renormalised coupling observable ``t^2 <E(t)>`` defines the reference
scale ``t0`` via ``t0^2 <E(t0)> = 0.3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields import GaugeField
from repro.hmc.action import plaquette_force
from repro.hmc.integrator import _drift
from repro.loops import average_plaquette

__all__ = ["wilson_flow", "flow_energy_density", "find_t0", "FlowPoint"]


def flow_energy_density(gauge: GaugeField) -> float:
    """Plaquette discretisation of ``E = (1/4) G_munu^a G_munu^a``:

    ``E = (2/V) sum_x sum_{mu<nu} Re tr[1 - P_munu(x)] = 36 (1 - <plaq>)``.
    """
    return 36.0 * (1.0 - average_plaquette(gauge.u))


@dataclass(frozen=True)
class FlowPoint:
    """One sample along the flow trajectory."""

    t: float
    energy: float
    t2e: float
    plaquette: float


def _sample(t: float, gauge: GaugeField) -> FlowPoint:
    """The flow point at time ``t``: ``E`` from one plaquette pass."""
    plaq = average_plaquette(gauge.u)
    energy = 36.0 * (1.0 - plaq)
    return FlowPoint(t, energy, t * t * energy, plaq)


def wilson_flow(
    gauge: GaugeField,
    t_max: float,
    eps: float = 0.02,
    measure_every: int = 1,
) -> tuple[GaugeField, list[FlowPoint]]:
    """Flow to time ``t_max`` with RK3 steps of size ``eps``.

    Returns the flowed field (copy) and the trajectory of
    ``(t, E, t^2 E, plaquette)`` samples.  Luscher's scheme:

    ``W1 = exp(1/4 Z0) W0``
    ``W2 = exp(8/9 Z1 - 17/36 Z0) W1``
    ``V  = exp(3/4 Z2 - 8/9 Z1 + 17/36 Z0) W2``   with  ``Zi = eps Z(Wi)``.
    """
    if eps <= 0 or t_max < 0:
        raise ValueError(f"need eps > 0 and t_max >= 0, got ({eps}, {t_max})")
    if measure_every < 1:
        raise ValueError(f"measure_every must be >= 1, got {measure_every}")
    out = gauge.copy()
    n_steps = int(round(t_max / eps))
    history = [_sample(0.0, out)]
    t = 0.0
    for step in range(n_steps):
        z0 = plaquette_force(out.u, -eps)
        _drift(out, z0, 0.25)
        x = (8.0 / 9.0) * plaquette_force(out.u, -eps) - (17.0 / 36.0) * z0
        _drift(out, x, 1.0)
        _drift(out, (3.0 / 4.0) * plaquette_force(out.u, -eps) - x, 1.0)
        t += eps
        if (step + 1) % measure_every == 0 or step == n_steps - 1:
            history.append(_sample(t, out))
    return out, history


def find_t0(history: list[FlowPoint], target: float = 0.3) -> float | None:
    """The scale ``t0``: flow time where ``t^2 E`` crosses ``target``
    (linear interpolation); None if not reached."""
    for a, b in zip(history, history[1:]):
        if a.t2e < target <= b.t2e:
            frac = (target - a.t2e) / (b.t2e - a.t2e)
            return a.t + frac * (b.t - a.t)
    return None
