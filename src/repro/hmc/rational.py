"""Rational approximations of fractional operator powers.

RHMC represents ``det(M^dag M)^{n_f/2}`` for a single flavour
(``n_f = 1``) through ``S = phi^dag (M^dag M)^{-1/2} phi``, evaluating the
inverse square root by a partial-fraction rational approximation

``x^p  ~  a0 + sum_i r_i / (x + b_i)``     on ``[lo, hi]``

whose shifted systems a single multishift CG solves simultaneously.  The
coefficients here come from a least-squares fit of the *relative* error
on a log grid — not the textbook Remez minimax, but it reaches
~1e-7 relative accuracy with 12 poles over five decades, which is ample
for an exact-accept HMC (the Metropolis step corrects residual error in
the action; only the heatbath draw carries a tiny bias, as in production
RHMC with finite Remez accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.multishift import multishift_cg

__all__ = ["RationalApprox", "fit_rational_power"]


@dataclass(frozen=True)
class RationalApprox:
    """``r(x) = a0 + sum_i residues[i] / (x + shifts[i])`` approximating
    ``x**power`` on ``[lo, hi]``."""

    power: float
    lo: float
    hi: float
    a0: float
    residues: np.ndarray
    shifts: np.ndarray
    max_rel_error: float

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        out = np.full_like(x, self.a0)
        for r, b in zip(self.residues, self.shifts):
            out = out + r / (x + b)
        return out

    def apply_operator(self, op, b: np.ndarray, tol: float = 1e-10, max_iter: int = 10000):
        """``r(A) b`` via one multishift-CG solve over all poles.

        ``op`` must be Hermitian positive definite with spectrum inside
        ``[lo, hi]``.  Returns (result, results_list) where results_list
        carries the solver accounting.
        """
        results = multishift_cg(op, b, list(self.shifts), tol=tol, max_iter=max_iter)
        return self.combine(b, results), results

    def combine(self, b: np.ndarray, results) -> np.ndarray:
        """``a0 b + sum_i r_i x_i`` from the shifted solutions ``x_i = (A + b_i)^{-1} b``
        of ``results`` (one per shift, in order)."""
        out = self.a0 * b
        for r, res in zip(self.residues, results):
            out = out + r * res.x
        return out


def fit_rational_power(
    power: float,
    lo: float,
    hi: float,
    n_poles: int = 12,
    n_grid: int = 400,
) -> RationalApprox:
    """Fit ``x**power`` (power in (-1, 1), nonzero) on ``[lo, hi]``.

    Shifts are seeded log-spaced across the interval (the known structure
    of the optimal Zolotarev solution) and optimised by variable
    projection: ``a0`` and the residues are the linear least-squares fit
    of the relative error on a log grid at every trial set of shifts, and
    Levenberg-Marquardt moves the log-shifts alone — which, unlike a joint
    fit, converges in tens to hundreds of evaluations.
    """
    if not -1.0 < power < 1.0 or power == 0.0:
        raise ValueError(f"power must be in (-1, 1) and nonzero, got {power}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if n_poles < 1:
        raise ValueError(f"n_poles must be >= 1, got {n_poles}")
    from scipy.optimize import least_squares  # scipy costs 40 MB and 0.7 s at import

    xs = np.geomspace(lo, hi, n_grid)
    target = xs**power

    def linear_fit(log_shifts):
        """``(a0, residues)`` minimising the relative error at these shifts, and that error."""
        basis = np.empty((n_grid, n_poles + 1))
        basis[:, 0] = 1.0
        basis[:, 1:] = 1.0 / (xs[:, None] + np.exp(log_shifts))
        basis /= target[:, None]
        coef = np.linalg.lstsq(basis, np.ones(n_grid), rcond=None)[0]
        return coef, basis @ coef - 1.0

    # Log-shifts keep the poles off the (positive) spectrum.
    seed = np.log(np.geomspace(lo * 0.5, hi * 2.0, n_poles))
    log_shifts = least_squares(lambda t: linear_fit(t)[1], seed, method="lm").x
    coef, err = linear_fit(log_shifts)
    a0, res, shifts = coef[0], coef[1:], np.exp(log_shifts)
    order = np.argsort(shifts)
    return RationalApprox(
        power=power,
        lo=lo,
        hi=hi,
        a0=float(a0),
        residues=res[order],
        shifts=shifts[order],
        max_rel_error=float(np.max(np.abs(err))),
    )
