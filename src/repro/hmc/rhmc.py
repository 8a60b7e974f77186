"""Rational HMC: a single Wilson flavour via ``det(M^dag M)^{1/2}``.

On the even-odd Schur system, as the two-flavour action
(:mod:`repro.hmc.pseudofermion`): ``S = phi_e^dag (A)^{-1/2} phi_e`` with
``A = M_hat^dag M_hat`` and the inverse square root replaced by a
partial-fraction rational approximation; one multishift CG per force
evaluation solves every pole at once.  The heatbath draw uses a second
approximation, of ``x^{+1/4}``: ``phi = A^{1/4} eta_e`` gives
``S = |eta_e|^2`` up to the fit error.  With ``X_i = (A + b_i)^{-1} phi``
the force of ``dS = - sum_i r_i [ (M_hat X_i)^dag dM_hat X_i + h.c. ]``
is the two-flavour action's back-substituted Schur bilinear summed over
the poles with weights ``r_i``, validated against the numerical gradient
of S in the tests.  ``phi`` and the ``X_i`` are columns of even-site
planes, the vectors of the Schur normal operator.  The energy and the kick
on one link state share the same multishift solve, kept as the
two-flavour action keeps its solutions: by a digest of the links.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.eo import EvenOddWilson
from repro.dirac.hopping import DEFAULT_FERMION_PHASES
from repro.fields import GaugeField, inner, norm, random_fermion
from repro.hmc.pseudofermion import _SchurAction
from repro.hmc.rational import RationalApprox, fit_rational_power
from repro.solvers.lanczos import lanczos
from repro.solvers.multishift import multishift_cg
from repro.util.rng import ensure_rng

__all__ = ["OneFlavorWilsonAction", "estimate_spectral_bounds"]


def estimate_spectral_bounds(op, start: np.ndarray, safety: float = 2.0) -> tuple[float, float]:
    """Conservative (lo, hi) bracketing of a Hermitian PD spectrum: power
    iteration for the top, a short Lanczos for the bottom, both in the
    Krylov space of ``start`` and widened by ``safety``."""
    v = start / norm(start)
    lam_max = 1.0
    for _ in range(20):
        w = op(v)
        lam_max = norm(w)
        v = w / lam_max
    pairs = lanczos(op, 1, start.shape, krylov_dim=30, start=start)
    lam_min = float(pairs.values[0])
    return lam_min / safety, lam_max * safety


def _even_gaussian(eo: EvenOddWilson, rng) -> np.ndarray:
    """The even-site column of a Gaussian fermion field."""
    return eo.even_planes(random_fermion(eo.lattice, rng=rng))


class OneFlavorWilsonAction(_SchurAction):
    """``S = phi_e^dag (M_hat^dag M_hat)^{-1/2} phi_e`` — one Wilson flavour by
    RHMC on the even-odd Schur system (odd extents raise ``ValueError``).

    Parameters
    ----------
    mass:
        Sea-quark mass.
    spectral_bounds:
        (lo, hi) bracketing the spectrum of ``M_hat^dag M_hat`` along the whole
        trajectory.  ``None`` estimates them at the first refresh (and the
        approximation interval is widened by the estimator's safety
        factor, as production RHMC does).
    n_poles:
        Partial-fraction order for both the -1/2 and +1/4 approximations.
    """

    def __init__(
        self,
        mass: float,
        spectral_bounds: tuple[float, float] | None = None,
        n_poles: int = 12,
        phases: tuple[complex, complex, complex, complex] = DEFAULT_FERMION_PHASES,
        solver_tol: float = 1e-10,
        max_iter: int = 10000,
    ) -> None:
        self.mass = float(mass)
        self.phases = tuple(phases)
        self.n_poles = int(n_poles)
        self.solver_tol = float(solver_tol)
        self.max_iter = int(max_iter)
        self.phi: np.ndarray | None = None
        #: (links key, phi, multishift results) of the last solve.
        self._solved: tuple[tuple, np.ndarray, list] | None = None
        self._bounds = spectral_bounds
        self._inv_sqrt: RationalApprox | None = None
        self._quarter: RationalApprox | None = None
        if spectral_bounds is not None:
            self._build_approximations()

    def _build_approximations(self) -> None:
        lo, hi = self._bounds
        self._inv_sqrt = fit_rational_power(-0.5, lo, hi, n_poles=self.n_poles)
        self._quarter = fit_rational_power(0.25, lo, hi, n_poles=self.n_poles)

    @property
    def rational_error(self) -> float:
        """Worst relative fit error of the two approximations in use."""
        if self._inv_sqrt is None:
            raise RuntimeError("approximations not built yet; call refresh()")
        return max(self._inv_sqrt.max_rel_error, self._quarter.max_rel_error)

    # -- heatbath -----------------------------------------------------------

    def refresh(self, gauge: GaugeField, rng=None) -> None:
        rng = ensure_rng(rng)
        eo = self._operator(gauge)[1]
        nop = eo.schur_operator().normal_op()
        if self._inv_sqrt is None:
            self._bounds = estimate_spectral_bounds(nop, _even_gaussian(eo, rng))
            self._build_approximations()
        self.phi, _ = self._quarter.apply_operator(
            nop, _even_gaussian(eo, rng), tol=self.solver_tol, max_iter=self.max_iter
        )
        self._solved = None

    def set_phi(self, phi: np.ndarray) -> None:
        """Pin the pseudofermion field, an even-site column (gradient checks)."""
        self.phi = phi.copy()
        self._solved = None

    # -- action + force -------------------------------------------------------

    def _solve(self, gauge: GaugeField) -> tuple[list, EvenOddWilson]:
        """The multishift solve of the -1/2 approximation's poles on these links:
        the kept one while the links' digest and ``phi`` are those it ran on
        (the initial energy and the first kick share links, the last kick
        and the final energy too)."""
        if self.phi is None:
            raise RuntimeError("pseudofermion field not initialised; call refresh()")
        key, eo = self._operator(gauge)
        links, phi, results = self._solved or (None, None, None)
        if phi is not self.phi or links != key:
            results = multishift_cg(
                eo.schur_operator().normal_op(), self.phi, list(self._inv_sqrt.shifts),
                tol=self.solver_tol, max_iter=self.max_iter,
            )
            self._solved = key, self.phi, results
        return results, eo

    def action(self, gauge: GaugeField) -> float:
        results, _ = self._solve(gauge)
        return float(inner(self.phi, self._inv_sqrt.combine(self.phi, results)).real)

    def _force_solutions(self, gauge: GaugeField):
        results, eo = self._solve(gauge)
        return np.stack([res.x for res in results]), eo, self._inv_sqrt.residues
