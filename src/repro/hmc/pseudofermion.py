"""Two-flavour Wilson pseudofermion action, even-odd preconditioned.

In the parity-ordered basis ``M_oo = d 1`` with ``d = m + 4``, so
``det(M^dag M) = d^(24 V/2) det(M_hat^dag M_hat)`` with the Schur complement
``M_hat = d - H_eo H_oe / 4d`` (:mod:`repro.dirac.eo`): the constant drops
out of the gauge distribution and the two degenerate flavours are a
Gaussian integral over a pseudofermion field on the even sites alone::

    S_pf = phi_e^dag (M_hat^dag M_hat)^{-1} phi_e

Heatbath at the start of a trajectory: draw ``eta ~ N(0,1)`` and set
``phi = M_hat^dag eta_e`` (then ``S_pf = |eta_e|^2`` exactly).  With
``X = (M_hat^dag M_hat)^{-1} phi`` and ``Y = M_hat X`` the link variation is
``-(Y^dag dM_hat X + h.c.)``, and because ``dM_hat = -(dH_eo H_oe + H_eo
dH_oe) / 4d`` that is the full-lattice ``-(Y_f^dag dM X_f + h.c.)`` of the
back-substituted fields ``X_f = (X, H_oe X / 2d)`` and ``Y_f = (Y, gamma5
H_oe gamma5 Y / 2d)`` — the odd sites that solve ``(M X_f)_o = 0`` and
``(M^dag Y_f)_o = 0``.  The force is therefore the same bilinear as for
the full determinant, ``(1/2) Ta[C1 - C2]`` of the colour outer products
below, *verified against the numerical gradient of S_pf* in the tests.
Fields stay full-lattice arrays, zero on the odd sites; extents are even.

The one solve ``(M_hat^dag M_hat) X = phi`` comes in two grades.  The *force
grade* is CG from a zero guess to ``force_tol``: a deterministic function
of the links alone, so the kick is reversible and area-preserving whatever
its residual and Metropolis stays exact — which a guess carried over from
other links, or a solution of another accuracy, would break.  The *action
grade* is the same CG continued from the force-grade solution on the same
links to ``solver_tol``: an energy needs accuracy, not reversibility.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import su3
from repro.dirac.eo import EvenOddWilson
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, inner, random_fermion
from repro.gammas import apply_gamma5, spin_projector_matrix
from repro.hmc.action import GaugeAction
from repro.lattice import shift_with_phase
from repro.solvers.cg import cg
from repro.telemetry.spans import span
from repro.util.rng import ensure_rng

__all__ = ["TwoFlavorWilsonAction", "wilson_bilinear_force"]

#: What ``optimize=True`` plans for the bilinear's two-operand contractions on
#: each of its 16 calls per force; fixed here, so the same contraction order.
_PAIR = ["einsum_path", (0, 1)]


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
        w1 = np.einsum("st,...tc->...sc", p_minus, y, optimize=_PAIR)
        outer1 = np.einsum("...tc,...ta->...ca", x_fwd, np.conj(w1), optimize=_PAIR)
        c1 = su3.mul(u[mu], outer1)

        w2 = np.einsum("st,...tc->...sc", p_plus, y, optimize=_PAIR)
        w2_fwd = shift_with_phase(w2, mu, +1, phases[mu])
        outer2 = np.einsum("...tc,...ta->...ca", x, np.conj(w2_fwd), optimize=_PAIR)
        c2 = su3.mul_dag(outer2, u[mu])

        out[mu] = 0.5 * su3.project_algebra(c1 - c2)
    return out


class TwoFlavorWilsonAction(GaugeAction):
    """``S_pf = phi_e^dag (M_hat^dag M_hat)^{-1} phi_e`` for the Wilson operator's
    even-odd Schur complement (odd extents raise ``ValueError``).

    Parameters
    ----------
    mass:
        Sea-quark mass of the degenerate doublet.
    solver_tol:
        Residual of the action-grade solve behind the two energies of the
        Metropolis test (tmLQCD's ``AcceptancePrecision``).
    force_tol:
        Residual of the force-grade solve behind every molecular-dynamics
        kick (``ForcePrecision``); ``force_tol <= solver_tol`` is one grade:
        the energies read the force-grade solution, no continuation runs.

    :meth:`force` is always the zero-guess solve on the links it is given,
    :meth:`action` always that solve continued to ``solver_tol``, whatever
    was asked before.  A trajectory asks for the same system more than
    once (the initial energy and the first kick share links, the final
    energy and the last kick too), so the last solution of each grade is
    kept with a SHA-256 digest of its links' bytes (as
    :class:`repro.loops.PlaquetteMemo` keys the plaquette) and serves a
    call of its own grade on links of that digest — by content, so an
    in-place edit of ``gauge.u`` is seen, and no copy of the links is kept;
    the kept force grade also seeds the continuation.  An action-grade
    solution never serves a kick: the forward and the momentum-flipped
    trajectory would then differ at their end points.  One
    :class:`EvenOddWilson` serves the calls on one link array of one
    content — the heatbath and the initial energy's two grades share its
    parity link planes and stacks — until a force has used it: the drift
    that follows replaces the links, and its planes and stacks (9 blocks
    at 4^4) are not held through the drift, where a trajectory peaks.
    """

    def __init__(
        self,
        mass: float,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        solver_tol: float = 1e-10,
        max_iter: int = 10000,
        force_tol: float = 1e-7,
    ) -> None:
        if force_tol <= 0.0:
            raise ValueError(f"force_tol must be positive, got {force_tol!r}")
        self.mass = float(mass)
        self.phases = tuple(phases)
        self.solver_tol = float(solver_tol)
        self.force_tol = float(force_tol)
        self.max_iter = int(max_iter)
        self.phi: np.ndarray | None = None
        #: grade ("action" | "force") -> (links key, phi, X) of its last solve.
        self._solved: dict[str, tuple[tuple, np.ndarray, np.ndarray]] = {}
        #: (links key, EvenOddWilson) of the last link state asked for.
        self._eo: tuple[tuple, EvenOddWilson] | None = None

    # -- pseudofermion heatbath -------------------------------------------------

    def refresh(self, gauge: GaugeField, rng=None) -> None:
        """Draw ``phi = M_hat^dag eta`` with Gaussian eta (called by HMC); eta
        is drawn on the full lattice and ``M_hat^dag`` reads its even sites."""
        rng = ensure_rng(rng)
        m_hat = self._operator(gauge)[1].schur_operator()
        self.phi = m_hat.apply_dagger(random_fermion(gauge.lattice, rng=rng))
        self._solved.clear()

    def set_phi(self, phi: np.ndarray) -> None:
        """Pin the pseudofermion field, zero on the odd sites (gradient checks)."""
        self.phi = phi.copy()
        self._solved.clear()

    def _operator(self, gauge: GaugeField) -> tuple[tuple, EvenOddWilson]:
        """The key of the links' bytes and the :class:`EvenOddWilson` of this
        link state: the kept one while it holds this very array with these bytes."""
        u = np.ascontiguousarray(gauge.u)
        key = (u.shape, u.dtype.str, hashlib.sha256(u).digest())
        if self._eo is None or self._eo[0] != key or self._eo[1].gauge.u is not gauge.u:
            self._eo = key, EvenOddWilson(gauge, self.mass, self.phases)
        return self._eo

    def _solve_x(self, gauge: GaugeField, grade: str) -> tuple[np.ndarray, EvenOddWilson]:
        if self.phi is None:
            raise RuntimeError("pseudofermion field not initialised; call refresh()")
        key, eo = self._operator(gauge)
        if self.force_tol <= self.solver_tol:
            grade = "force"  # one grade: the energies read the kicks' solutions
        links, phi, x = self._solved.get(grade, (None, None, None))
        if phi is self.phi and links == key:
            return x, eo
        refine = grade == "action"
        x0 = self._solve_x(gauge, "force")[0] if refine else None
        with span("pf_refine" if refine else "pf_solve", cat="hmc"):
            res = cg(eo.schur_operator().normal_op(), self.phi, x0=x0,
                     tol=self.solver_tol if refine else self.force_tol,
                     max_iter=self.max_iter, record_history=False)
        if not res.converged:
            raise RuntimeError(f"pseudofermion solve failed: {res.summary()}")
        self._solved[grade] = (key, self.phi, res.x)
        return res.x, eo

    # -- action + force ----------------------------------------------------------

    def action(self, gauge: GaugeField) -> float:
        x, _ = self._solve_x(gauge, "action")
        return float(inner(self.phi, x).real)

    def force(self, gauge: GaugeField) -> np.ndarray:
        x, eo = self._solve_x(gauge, "force")
        with span("pf_bilinear", cat="hmc"):
            y = eo.schur_operator().apply(x)
            x_full = eo.reconstruct(x)
            y_full = apply_gamma5(eo.reconstruct(apply_gamma5(y)))
            # A kick is followed by a drift, which replaces the links: the
            # operator's planes and stacks would be held through it, at the
            # trajectory's peak, for nothing.
            self._eo = None
            # dpi/dt contribution is wilson_bilinear_force; force = -that.
            return -wilson_bilinear_force(gauge, x_full, y_full, self.phases)
