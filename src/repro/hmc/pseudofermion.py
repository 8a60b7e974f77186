"""Two-flavour Wilson pseudofermion action, even-odd preconditioned.

In the parity-ordered basis ``M_oo = d 1`` with ``d = m + 4``, so
``det(M^dag M) = d^(24 V/2) det(M_hat^dag M_hat)`` with the Schur complement
``M_hat = d - H_eo H_oe / 4d`` (:mod:`repro.dirac.eo`): the constant drops
out of the gauge distribution and the two degenerate flavours are a
Gaussian integral over a pseudofermion field on the even sites alone::

    S_pf = phi_e^dag (M_hat^dag M_hat)^{-1} phi_e

Heatbath at the start of a trajectory: draw ``eta ~ N(0,1)`` and set
``phi = M_hat^dag eta_e``; then ``S_pf = |eta_e|^2`` exactly, which is the
energy at the start of the trajectory, with no solve.  With
``X = (M_hat^dag M_hat)^{-1} phi`` and ``Y = M_hat X`` the link variation is
``-(Y^dag dM_hat X + h.c.)``, and because ``dM_hat = -(dH_eo H_oe + H_eo
dH_oe) / 4d`` that is the full-lattice ``-(Y_f^dag dM X_f + h.c.)`` of the
back-substituted fields ``X_f = (X, H_oe X / 2d)`` and ``Y_f = (Y, gamma5
H_oe gamma5 Y / 2d)`` — the odd sites that solve ``(M X_f)_o = 0`` and
``(M^dag Y_f)_o = 0``.  The force is therefore the same bilinear as for
the full determinant, ``(1/2) Ta[C1 - C2]`` of the colour outer products
below, *verified against the numerical gradient of S_pf* in the tests.
``phi``, ``X`` and ``Y`` are columns of even-site planes, the vectors of
:meth:`~repro.dirac.eo.SchurOperator.normal_op`; only the back-substituted
``X_f`` and ``Y_f`` the bilinear reads are full-lattice fields.  Extents
are even.  RHMC's one flavour (:mod:`repro.hmc.rhmc`) shares the
link-keyed operator and this bilinear through :class:`_SchurAction`.

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
from functools import lru_cache

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, random_fermion
from repro.gammas import apply_gamma5
from repro.hmc.action import GaugeAction
from repro.kernels.shifts import term_site_tables
from repro.kernels.spin import PROJECT_STACK, gamma5_planes
from repro.solvers.cg import cg
from repro.su3 import planes
from repro.telemetry.spans import span
from repro.util.rng import ensure_rng

__all__ = ["TwoFlavorWilsonAction", "wilson_bilinear_force"]


@lru_cache(maxsize=None)
def _bilinear_gathers(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat gathers ``(a, b)``, (4, 2, 3, 4, V) and (2, 3, 4, V), over the
    half spinors ``h[x|y, re|im, p, t, colour, site]`` of direction
    ``mu``'s two terms (``k = 2 mu + t``).

    Row ``n = (t, p)`` of ``a[mu]`` reads ``h_x`` (``t = 0``) or ``h_y``
    (``t = 1``) at ``x + mu``; the same row of ``b`` reads the other
    field at ``x``.
    """
    source, _ = term_site_tables(dims)
    volume = source.shape[1]
    c, i, t, p = np.ix_(range(2), range(3), range(2), range(2))

    def rows(field):
        return (((((field * 2 + c) * 2 + p) * 2 + t) * 3 + i) * volume)[..., None]

    a = (rows(t) + source[0::2, None, None, None, None]).reshape(4, 2, 3, 4, volume)
    b = (rows(1 - t) + np.arange(volume)).reshape(2, 3, 4, volume)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def _spinor_rows(x: np.ndarray) -> np.ndarray:
    """(re|im, spin, colour, site) planes of a (*sites, 4, 3) field, as (8, 3, V)."""
    sites = x.reshape(-1, 12).T
    rows = np.empty((2, 12, sites.shape[1]))
    rows[0] = sites.real
    rows[1] = sites.imag
    return rows.reshape(8, 3, -1)


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
    ``(1/2) Ta(C1 - C2)`` with the colour outer products
    ``C1 = U_mu(x) O1``, ``O1 = tr_spin[(1 - gamma_mu) x(x+mu) y(x)^dag]``,
    and ``C2 = O2 U_mu(x)^dag``, ``O2 = tr_spin[(1 + gamma_mu) x(x)
    y(x+mu)^dag]``.  The two-flavour action uses it once with
    ``X = (M^dag M)^{-1} phi``, ``Y = M X``; RHMC sums it over
    rational-approximation poles.

    Each ``(1 -+ gamma_mu)`` is rank 2: with ``h`` the half spinor of
    :mod:`repro.kernels.spin` (the kernel's ``project`` stage),
    ``y^dag (1 + s gamma_mu) x = h_y^dag h_x``, so every spin trace runs
    over two components.  ``Ta(C2) = -Ta(U_mu O2^dag)``, so a direction
    is one colour sum of four half-spinor outer products,
    ``S_mu = O1 + O2^dag``, and one product ``U_mu S_mu`` on link planes.
    """
    u = gauge.u
    dims = u.shape[1:5]
    volume = u[0].size // 9
    gather_a, gather_b = _bilinear_gathers(dims)
    _, crossed = term_site_tables(dims)
    rows = (_spinor_rows(x), _spinor_rows(y))
    force = np.empty(u.shape, u.dtype)
    h = np.empty((2, 2, 2, 2, 3, volume))
    for mu, phase in enumerate(phases):
        # h[c, p, t] = upper[c, p] + sign * lower: the projections of terms 2 mu + t.
        source, sign = (table[:, :, 2 * mu : 2 * mu + 2] for table in PROJECT_STACK)
        for field, psi in zip(h, rows):
            np.multiply(psi[source], sign, out=field)
            field += psi.reshape(2, 4, 1, 3, volume)[:, 0:2]
        flat = h.reshape(-1)
        a = flat[gather_a[mu]]
        if phase != 1.0:
            # The forward reads that wrapped take the boundary phase.
            wrapped = a[..., crossed[2 * mu]]
            re, im = wrapped
            a[..., crossed[2 * mu]] = (phase.real * re - phase.imag * im,
                                       phase.imag * re + phase.real * im)
        s = planes.mul_dag(a, flat[gather_b])
        f = planes.mul(planes.to_planes(u[mu : mu + 1]), s)
        planes.from_planes(planes.project_algebra(f, 0.5, out=f), dims, out=force[mu : mu + 1])
    return force


class _SchurAction(GaugeAction):
    """What the Wilson pseudofermion actions share on the Schur system: the
    link-keyed :class:`EvenOddWilson` and the back-substituted bilinear's
    force.  Subclasses set ``mass`` and ``phases`` and define
    ``_force_solutions(gauge) -> (X, eo, weights)``: the Schur solutions
    behind a kick (a block of even-site columns), their operator and
    per-row weights (``None``: 1)."""

    #: (links key, EvenOddWilson) of the last link state asked for.
    _eo: tuple[tuple, EvenOddWilson] | None = None

    def _operator(self, gauge: GaugeField) -> tuple[tuple, EvenOddWilson]:
        """The key of the links' bytes and the :class:`EvenOddWilson` of this
        link state: the kept one while it holds this very array with these bytes."""
        u = np.ascontiguousarray(gauge.u)
        key = (u.shape, u.dtype.str, hashlib.sha256(u).digest())
        if self._eo is None or self._eo[0] != key or self._eo[1].gauge.u is not gauge.u:
            self._eo = key, EvenOddWilson(gauge, self.mass, self.phases)
        return self._eo

    def force(self, gauge: GaugeField) -> np.ndarray:
        """The force of ``-sum_i w_i (Y_i^dag dM_hat X_i + h.c.)`` for the Schur
        solutions ``X`` (an (n, ...) block) of :meth:`_force_solutions` with
        ``Y_i = M_hat X_i``: the bilinear of the back-substituted fields
        ``X_f = (X, H_oe X / 2d)`` and ``Y_f = (Y, gamma5 H_oe gamma5 Y / 2d)``."""
        X, eo, weights = self._force_solutions(gauge)
        with span("pf_bilinear", cat="hmc"):
            Y = eo.schur_operator().apply_planes_into(X, np.empty_like(X))
            X_f = eo.reconstruct(X)
            gamma5_planes(Y.reshape((-1,) + Y.shape[2:]))  # every column's (re|im, spin, ...)
            Y_f = apply_gamma5(eo.reconstruct(Y))
            if weights is not None:
                X_f *= weights.reshape((-1,) + (1,) * (X_f.ndim - 1))
            # A kick is followed by a drift, which replaces the links: the
            # operator's planes and stacks (9 blocks at 4^4) would be held
            # through the bilinear, at the trajectory's peak, and the drift,
            # for nothing.
            self._eo = eo = None
            # dpi/dt contribution is wilson_bilinear_force; force = -that.
            force = wilson_bilinear_force(gauge, X_f[0], Y_f[0], self.phases)
            for x, y in zip(X_f[1:], Y_f[1:]):
                force += wilson_bilinear_force(gauge, x, y, self.phases)
            return np.negative(force, out=force)


class TwoFlavorWilsonAction(_SchurAction):
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
    was asked before — except on the links and ``phi`` of the last
    :meth:`refresh`, where it is ``|eta_e|^2``, exact and kept under those
    links' key: the initial energy of a trajectory runs no solve.  The
    final energy and the last kick share links, so the last solution of
    each grade is kept with a SHA-256 digest of its links' bytes (as
    :class:`repro.loops.PlaquetteMemo` keys the plaquette) and serves a
    call of its own grade on links of that digest — by content, so an
    in-place edit of ``gauge.u`` is seen, and no copy of the links is kept;
    the kept force grade also seeds the continuation.  An action-grade
    solution never serves a kick: the forward and the momentum-flipped
    trajectory would then differ at their end points.  One
    :class:`EvenOddWilson` serves the calls on one link array of one
    content until a force has used it: the drift that follows replaces the
    links, and its planes and stacks (9 blocks at 4^4) are not held
    through the drift, where a trajectory peaks.
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
        #: (links key, phi, |eta_e|^2) of the last refresh.
        self._refreshed: tuple[tuple, np.ndarray, float] | None = None

    # -- pseudofermion heatbath -------------------------------------------------

    def refresh(self, gauge: GaugeField, rng=None) -> None:
        """Draw ``phi = M_hat^dag eta_e`` with Gaussian eta (called by HMC); eta
        is drawn on the full lattice and its even sites are taken."""
        rng = ensure_rng(rng)
        key, eo = self._operator(gauge)
        eta = eo.even_planes(random_fermion(gauge.lattice, rng=rng))[None]
        self.phi = eo.schur_operator().apply_planes_into(eta, np.empty_like(eta), dagger=True)[0]
        self._solved.clear()
        self._refreshed = key, self.phi, float(np.vdot(eta, eta))

    def set_phi(self, phi: np.ndarray) -> None:
        """Pin the pseudofermion field, an even-site column (gradient checks)."""
        self.phi = phi.copy()
        self._solved.clear()
        self._refreshed = None

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
        links, phi, eta2 = self._refreshed or (None, None, None)
        if eta2 is not None and phi is self.phi and links == self._operator(gauge)[0]:
            return eta2
        x, _ = self._solve_x(gauge, "action")
        return float(np.vdot(self.phi, x))

    def _force_solutions(self, gauge: GaugeField):
        x, eo = self._solve_x(gauge, "force")
        return x[None], eo, None
