"""Unpenalized Huber regression via iteratively reweighted least squares,
plus an ordinary least squares baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _RANK_EPS,
    Dataset,
    RankDeficientError,
    _check_rank,
    _check_tau,
    _hloss_score,
    _mean,
    _norm,
    _weight,
)

@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs shared by the solvers.

    tol       stopping threshold on the coefficient change ||b_new - b_old||_2
    max_iter  outer-iteration cap; exceeding it is a soft failure
    """

    tol: float = 1e-4
    max_iter: int = 5000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# Tighter coefficient tolerance for IRLS: each sweep is a full least-squares
# solve, and the dimension is small in the unpenalized regime.
IRLS_DEFAULTS = SolverConfig(tol=1e-8, max_iter=500)
LAMM_DEFAULTS = SolverConfig(tol=1e-4, max_iter=5000)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a regression fit.

    beta        fitted coefficients (working-design order; intercept last)
    iterations  number of outer iterations performed (for LAMM, including
                the coordinate sweeps that finish a fit at the float floor)
    converged   whether stop_reason == "converged"
    objective   final (penalized, where applicable) objective value
    grad_norm   l2 norm of the smooth-loss gradient at ``beta``
    trajectory  objective value per iteration, when recorded
    max_inner   largest inner-majorization retry count (LAMM only)
    stop_reason "converged", "max_iter" or "no_descent" (LAMM at the float floor)
    matvecs, inner_total   design products and surrogate trials (LAMM only)
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    objective: float
    grad_norm: float
    trajectory: tuple | None = None
    max_inner: int | None = None
    stop_reason: str | None = None
    matvecs: int | None = None
    inner_total: int | None = None


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system, rejecting singular input."""
    _check_rank(np.linalg.eigvalsh(gram))
    return np.linalg.solve(gram, rhs)


def fit_ols(data: Dataset) -> FitResult:
    """Ordinary least squares via the normal equations (``data.ols_beta``)."""
    design, y, n = data.design, data.y, data.n
    beta = data.ols_beta.copy()
    resid = y - design @ beta
    grad = -(design.T @ resid) / n
    return FitResult(
        beta=beta,
        iterations=1,
        converged=True,
        objective=0.5 * _mean(resid**2),
        grad_norm=_norm(grad),
        stop_reason="converged",
    )


def fit_huber(data: Dataset, tau, cfg: SolverConfig | None = None) -> FitResult:
    """Huber regression solved by iteratively reweighted least squares.

    Each sweep solves the weighted normal equations with weights
    ``irls_weight(residual, tau)``; this majorizes the Huber objective, so the
    recorded loss trajectory is nonincreasing.  Warm-started at the cached
    OLS solution ``data.ols_beta`` (zero vector if OLS is rank-deficient).
    Stops once the coefficient change drops below ``cfg.tol`` and the
    gradient is small.
    Each sweep forms the residuals once; they give the recorded loss, the
    gradient and the next sweep's weights.
    """
    tau = _check_tau(tau)
    cfg = cfg or IRLS_DEFAULTS
    try:
        beta = data.ols_beta
    except RankDeficientError:
        beta = np.zeros(data.p)
    design, y, n = data.design, data.y, data.n
    # With 0 < w <= 1, min(w) * gram <= X'WX/n <= gram, so cond(X'WX) is at
    # most cond(gram) / min(w).  A sweep whose min(w) clears ``w_floor``
    # would pass solve_spd's rank check and solves directly; the factor 2
    # absorbs eigvalsh's rounding (about p * eps * lambda_max).
    lo, hi = float(data.gram_evals[0]), float(data.gram_evals[-1])
    w_floor = 2 * _RANK_EPS * hi / lo if lo > 0 else math.inf
    grad_tol = 1e-6 * (1.0 + _norm(y))
    resid = y - design @ beta
    loss, psi = _hloss_score(resid, tau)
    traj = [_mean(loss)]
    converged = False
    iterations = 0

    for _ in range(cfg.max_iter):
        w = _weight(resid, tau)
        gram = (design * w[:, None]).T @ design / n
        rhs = design.T @ (w * y) / n
        if np.minimum.reduce(w) > w_floor:
            beta_new = np.linalg.solve(gram, rhs)
        else:
            beta_new = solve_spd(gram, rhs)
        step = _norm(beta_new - beta)
        beta = beta_new
        iterations += 1
        resid = y - design @ beta
        loss, psi = _hloss_score(resid, tau)
        traj.append(_mean(loss))
        if step <= cfg.tol and _norm(design.T @ psi / n) <= grad_tol:
            converged = True
            break

    # the gradient is -design.T @ psi / n; its sign does not change the norm
    grad_norm = _norm(design.T @ psi / n)
    return FitResult(
        beta=beta,
        iterations=iterations,
        converged=converged,
        objective=traj[-1],
        grad_norm=grad_norm,
        trajectory=tuple(traj),
        stop_reason="converged" if converged else "max_iter",
    )
