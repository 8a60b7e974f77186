"""The Hybrid Monte Carlo driver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fields import GaugeField
from repro.hmc.action import GaugeAction, WilsonGaugeAction, kinetic_energy, sample_momenta
from repro.hmc.integrator import INTEGRATORS
from repro.loops import PlaquetteMemo
from repro.telemetry import registry as _tm_registry
from repro.telemetry.spans import span
from repro.telemetry.state import STATE
from repro.util.rng import ensure_rng

__all__ = ["HMC", "TrajectoryResult"]


@dataclass(frozen=True)
class TrajectoryResult:
    """Outcome of one HMC trajectory."""

    accepted: bool
    delta_h: float
    action_value: float
    plaquette: float


class _CompositeAction(GaugeAction):
    """Sum of several action terms sharing one set of links."""

    def __init__(self, terms) -> None:
        self.terms = list(terms)

    def action(self, gauge: GaugeField) -> float:
        return sum(t.action(gauge) for t in self.terms)

    def force(self, gauge: GaugeField) -> np.ndarray:
        f = self.terms[0].force(gauge)
        for t in self.terms[1:]:
            f = f + t.force(gauge)
        return f


@dataclass
class HMC:
    """Exact HMC for one or more action terms.

    Parameters
    ----------
    action:
        A single :class:`GaugeAction` or a list of terms (e.g. gauge +
        pseudofermion).  Terms with a ``refresh(gauge, rng)`` method get it
        called at the start of every trajectory (pseudofermion heatbath).
    step_size / n_steps:
        Trajectory length is ``step_size * n_steps``; length ~1 decorrelates
        well.
    integrator:
        ``"leapfrog"`` or ``"omelyan"``.
    """

    action: GaugeAction | list[GaugeAction]
    step_size: float = 0.1
    n_steps: int = 10
    integrator: str = "leapfrog"
    rng: np.random.Generator | int | None = None

    n_accepted: int = field(default=0, init=False)
    n_trajectories: int = field(default=0, init=False)
    dh_history: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"unknown integrator {self.integrator!r}; choose from {sorted(INTEGRATORS)}"
            )
        if isinstance(self.action, (list, tuple)):
            self._terms = list(self.action)
            self._action: GaugeAction = _CompositeAction(self._terms)
        else:
            self._terms = [self.action]
            self._action = self.action
        # Share the gauge term's memo, so the reported plaquette of links
        # an energy has just read costs nothing.
        self._plaquette = next(
            (t.plaquette for t in self._terms if isinstance(t, WilsonGaugeAction)),
            PlaquetteMemo(),
        )
        self.rng = ensure_rng(self.rng)

    def state_dict(self) -> dict:
        """Checkpointable driver counters (the RNG is serialised separately).

        Together with the gauge links and the RNG state this is everything a
        resumed stream needs to continue bit-for-bit (see ``repro.campaign``).
        """
        return {
            "n_accepted": int(self.n_accepted),
            "n_trajectories": int(self.n_trajectories),
            "dh_history": [float(x) for x in self.dh_history],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore counters saved by :meth:`state_dict`."""
        self.n_accepted = int(state["n_accepted"])
        self.n_trajectories = int(state["n_trajectories"])
        self.dh_history = [float(x) for x in state["dh_history"]]

    @property
    def acceptance_rate(self) -> float:
        if self.n_trajectories == 0:
            return 0.0
        return self.n_accepted / self.n_trajectories

    def plaquette(self, gauge: GaugeField) -> float:
        """The average plaquette of ``gauge``, through the memo the
        trajectory's energies share."""
        return self._plaquette(gauge.u)

    def trajectory(self, gauge: GaugeField) -> TrajectoryResult:
        """Evolve one trajectory in place (rejections restore the input)."""
        with span("hmc_trajectory", cat="hmc"):
            for t in self._terms:
                if hasattr(t, "refresh"):
                    t.refresh(gauge, self.rng)

            pi = sample_momenta(gauge, rng=self.rng)
            s_old = self._action.action(gauge)
            h_old = kinetic_energy(pi) + s_old

            proposal = gauge.copy()
            with span("integrate", cat="hmc"):
                INTEGRATORS[self.integrator](
                    proposal, pi, self._action, self.step_size, self.n_steps
                )
            s_new = self._action.action(proposal)
            h_new = kinetic_energy(pi) + s_new
            dh = h_new - h_old

            accepted = dh <= 0.0 or self.rng.random() < np.exp(-dh)
            if accepted:
                gauge.u = proposal.u
                self.n_accepted += 1
            self.n_trajectories += 1
            self.dh_history.append(float(dh))
            if STATE.counting:
                reg = _tm_registry.get_registry()
                reg.add("hmc/trajectories", 1)
                if accepted:
                    reg.add("hmc/accepted", 1)
                reg.observe("hmc/delta_h", abs(float(dh)))
            return TrajectoryResult(
                accepted=bool(accepted),
                delta_h=float(dh),
                action_value=float(s_new if accepted else s_old),
                plaquette=self.plaquette(gauge),
            )

    def run(self, gauge: GaugeField, n_trajectories: int) -> list[TrajectoryResult]:
        """Run a stream of trajectories, reunitarising periodically."""
        results = []
        for i in range(n_trajectories):
            results.append(self.trajectory(gauge))
            if (i + 1) % 25 == 0:
                gauge.reunitarize()
        return results
