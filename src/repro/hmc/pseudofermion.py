"""Two-flavour Wilson pseudofermion action.

``det(M^dag M)`` (two degenerate flavours) is represented by a Gaussian
integral over a pseudofermion field::

    S_pf = phi^dag (M^dag M)^{-1} phi

Heatbath at the start of a trajectory: draw ``eta ~ N(0,1)`` and set
``phi = M^dag eta`` (then ``S_pf = |eta|^2`` exactly).  The force follows
from differentiating M with respect to a link; with ``X = (M^dag M)^{-1}
phi`` and ``Y = M X`` the contribution to ``dpi/dt`` is
``(1/2) Ta[C1 - C2]`` where C1/C2 are the colour outer products built
below — a sign and index structure that is *verified against the numerical
gradient of S_pf* in the tests.
"""

from __future__ import annotations

import numpy as np

from repro import su3
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.dirac.wilson import WilsonDirac
from repro.fields import GaugeField, inner, random_fermion
from repro.gammas import spin_projector_matrix
from repro.hmc.action import GaugeAction
from repro.lattice import shift_with_phase
from repro.solvers.cg import cg
from repro.util.rng import ensure_rng

__all__ = ["TwoFlavorWilsonAction", "wilson_bilinear_force"]


def wilson_bilinear_force(
    gauge: GaugeField,
    x: np.ndarray,
    y: np.ndarray,
    phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
) -> np.ndarray:
    """``dpi/dt`` contribution of ``- [ Y^dag dM X + X^dag dM^dag Y ]``.

    This is the universal building block of Wilson fermion forces: for any
    action term whose link variation enters through
    ``delta S = -(Y^dag deltaM X + h.c.)`` the momentum derivative is
    ``(1/2) Ta(C1 - C2)`` with the colour outer products below.  The
    two-flavour action uses it once with ``X = (M^dag M)^{-1} phi``,
    ``Y = M X``; RHMC sums it over rational-approximation poles.
    """
    u = gauge.u
    out = np.empty_like(u)
    for mu in range(4):
        p_minus = spin_projector_matrix(mu, -1)  # (1 - gamma_mu)
        p_plus = spin_projector_matrix(mu, +1)
        x_fwd = shift_with_phase(x, mu, +1, phases[mu])
        w1 = np.einsum("st,...tc->...sc", p_minus, y, optimize=True)
        outer1 = np.einsum("...tc,...ta->...ca", x_fwd, np.conj(w1), optimize=True)
        c1 = su3.mul(u[mu], outer1)

        w2 = np.einsum("st,...tc->...sc", p_plus, y, optimize=True)
        w2_fwd = shift_with_phase(w2, mu, +1, phases[mu])
        outer2 = np.einsum("...tc,...ta->...ca", x, np.conj(w2_fwd), optimize=True)
        c2 = su3.mul_dag(outer2, u[mu])

        out[mu] = 0.5 * su3.project_algebra(c1 - c2)
    return out


class TwoFlavorWilsonAction(GaugeAction):
    """``S_pf = phi^dag (M^dag M)^{-1} phi`` for the Wilson operator.

    Parameters
    ----------
    mass:
        Sea-quark mass of the degenerate doublet.
    solver_tol:
        CG tolerance of the force/action solves; force accuracy feeds
        directly into HMC energy conservation.

    A trajectory asks for the same ``X = (M^dag M)^{-1} phi`` more than
    once: the initial action and the first kick see the same links, the
    final action repeats the last kick's solve, and the reported action
    repeats one of the two.  The last solve :meth:`action` ran and the
    last :meth:`force` ran are therefore kept, each with a copy of its
    links, and either serves a call whose links compare equal — by
    content, so an in-place edit of ``gauge.u`` is seen.
    """

    def __init__(
        self,
        mass: float,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        solver_tol: float = 1e-10,
        max_iter: int = 10000,
    ) -> None:
        self.mass = float(mass)
        self.phases = tuple(phases)
        self.solver_tol = float(solver_tol)
        self.max_iter = int(max_iter)
        self.phi: np.ndarray | None = None
        #: caller ("action" | "force") -> (links, phi, X) of its last solve.
        self._solved: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- pseudofermion heatbath -------------------------------------------------

    def refresh(self, gauge: GaugeField, rng=None) -> None:
        """Draw ``phi = M^dag eta`` with Gaussian eta (called by HMC)."""
        rng = ensure_rng(rng)
        eta = random_fermion(gauge.lattice, rng=rng)
        m = WilsonDirac(gauge, self.mass, self.phases)
        self.phi = m.apply_dagger(eta)
        self._solved.clear()

    def set_phi(self, phi: np.ndarray) -> None:
        """Pin the pseudofermion field (tests/numerical-gradient checks)."""
        self.phi = phi.copy()
        self._solved.clear()

    def _solve_x(self, gauge: GaugeField, caller: str) -> tuple[np.ndarray, WilsonDirac]:
        if self.phi is None:
            raise RuntimeError("pseudofermion field not initialised; call refresh()")
        m = WilsonDirac(gauge, self.mass, self.phases)
        for links, phi, x in self._solved.values():
            if phi is self.phi and np.array_equal(links, gauge.u):
                return x, m
        res = cg(m.normal_op(), self.phi, tol=self.solver_tol, max_iter=self.max_iter,
                 record_history=False)
        if not res.converged:
            raise RuntimeError(f"pseudofermion solve failed: {res.summary()}")
        self._solved[caller] = (gauge.u.copy(), self.phi, res.x)
        return res.x, m

    # -- action + force ----------------------------------------------------------

    def action(self, gauge: GaugeField) -> float:
        x, _ = self._solve_x(gauge, "action")
        return float(inner(self.phi, x).real)

    def force(self, gauge: GaugeField) -> np.ndarray:
        x, m = self._solve_x(gauge, "force")
        y = m.apply(x)
        # dpi/dt contribution is wilson_bilinear_force; force = -that.
        return -wilson_bilinear_force(gauge, x, y, self.phases)
