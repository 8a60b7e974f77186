"""Rational approximations of fractional operator powers.

RHMC represents ``det(M^dag M)^{n_f/2}`` for a single flavour
(``n_f = 1``) through ``S = phi^dag (M^dag M)^{-1/2} phi``, evaluating the
inverse square root by a partial-fraction rational approximation

``x^p  ~  a0 + sum_i r_i / (x + b_i)``     on ``[lo, hi]``

whose shifted systems a single multishift CG solves simultaneously.  The
coefficients here come from a damped Gauss-Newton fit of the *relative*
error on a log grid — not the textbook Remez minimax, but it reaches
~1e-5 relative accuracy with ~12 poles over four decades, which is ample
for an exact-accept HMC (the Metropolis step corrects residual error in
the action; only the heatbath draw carries a tiny bias, as in production
RHMC with finite Remez accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        from repro.solvers.multishift import multishift_cg

        results = multishift_cg(op, b, list(self.shifts), tol=tol, max_iter=max_iter)
        out = self.a0 * b
        for r, res in zip(self.residues, results):
            out = out + r * res.x
        return out, results


def fit_rational_power(
    power: float,
    lo: float,
    hi: float,
    n_poles: int = 12,
    n_grid: int = 400,
) -> RationalApprox:
    """Fit ``x**power`` (power in (-1, 1), nonzero) on ``[lo, hi]``.

    Shifts are seeded log-spaced across the interval (the known structure
    of the optimal Zolotarev solution) and optimised together with the
    residues by damped least squares on the relative error over a log grid.
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

    # Parameterise shifts/residues through logs/signed-logs to keep shifts
    # positive during optimisation (poles must stay off the spectrum).
    b0 = np.geomspace(lo * 0.5, hi * 2.0, n_poles)

    def unpack(theta):
        a0 = theta[0]
        res = theta[1 : 1 + n_poles]
        shifts = np.exp(theta[1 + n_poles :])
        return a0, res, shifts

    def model(theta):
        a0, res, shifts = unpack(theta)
        return a0 + np.sum(res[:, None] / (xs[None, :] + shifts[:, None]), axis=0)

    def residual(theta):
        return (model(theta) - target) / target

    def jacobian(theta):
        _, res, shifts = unpack(theta)
        denom = xs[None, :] + shifts[:, None]
        pole = 1.0 / (denom * target)  # d/d r_i
        # d/d log b_i = -r_i b_i / ((x + b_i)^2 target)
        dlog = -(res * shifts)[:, None] * pole / denom
        return np.concatenate([1.0 / target[None, :], pole, dlog], axis=0).T

    # Initial residues from a linear solve at fixed shifts.
    basis = np.concatenate(
        [np.ones((1, n_grid)), 1.0 / (xs[None, :] + b0[:, None])], axis=0
    )
    coef, *_ = np.linalg.lstsq((basis / target).T, np.ones(n_grid), rcond=None)
    theta0 = np.concatenate([[coef[0]], coef[1:], np.log(b0)])

    sol = least_squares(residual, theta0, jac=jacobian, method="lm", max_nfev=20000)
    a0, res, shifts = unpack(sol.x)
    err = float(np.max(np.abs(residual(sol.x))))
    order = np.argsort(shifts)
    return RationalApprox(
        power=power,
        lo=lo,
        hi=hi,
        a0=float(a0),
        residues=res[order],
        shifts=shifts[order],
        max_rel_error=err,
    )
