"""Unpenalized Huber regression by certified semismooth Newton steps with
an iteratively reweighted least-squares fallback, plus an ordinary least
squares baseline."""

from __future__ import annotations

import numpy as np

from .core import (
    Dataset,
    FitResult,
    RankDeficientError,
    SolverConfig,
    _certified,
    _check_rank,
    _check_tau,
    _hloss_score,
    _mean,
    _norm,
    _weight,
)

# Tighter coefficient tolerance for IRLS: each sweep is a full least-squares
# solve, and the dimension is small in the unpenalized regime.
IRLS_DEFAULTS = SolverConfig(tol=1e-8, max_iter=500)


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
        objective=0.5 * _mean(resid**2),
        grad_norm=_norm(grad),
        stop_reason="converged",
    )


def fit_huber(data: Dataset, tau, cfg: SolverConfig | None = None) -> FitResult:
    """Huber regression by certified semismooth Newton steps, with an
    iteratively reweighted least-squares sweep as the fallback.

    The Huber objective is quadratic on the rows with |r| <= tau and linear on
    the clipped rest.  A sweep first solves H b = X'(c*y + (1-c)*psi)/n with
    c = 1{|r| <= tau} and H = X'diag(c)X/n: the exact minimizer once the
    clipped set stops changing.  The step is kept only if it strictly lowers
    the loss or returns the current coefficients; otherwise the sweep solves
    the weighted normal equations with weights ``irls_weight(residual, tau)``,
    which majorize the Huber objective.  So the recorded loss trajectory is
    nonincreasing, up to rounding in the loss itself.  A Newton step depends
    only on the clipped rows and their signs, so no step can recur along a
    strictly falling loss, and the iteration cannot cycle.

    Both systems have weights in [0, 1], and ``core._certified`` bounds their
    smallest eigenvalue from the Gram spectrum and the row norms.  A Newton
    step is taken only where that bound certifies H; an IRLS system it
    certifies is solved directly, and any other goes through solve_spd's
    exact rank check.  Neither is certified where OLS is rank-deficient.

    Warm-started at the cached OLS solution ``data.ols_beta`` (zero vector if
    OLS is rank-deficient).  Stops once the coefficient change drops below
    ``cfg.tol`` and the gradient is small.
    """
    tau = _check_tau(tau)
    cfg = cfg or IRLS_DEFAULTS
    try:
        beta = data.ols_beta
    except RankDeficientError:
        beta = np.zeros(data.p)
    design, y, n = data.design, data.y, data.n
    grad_tol = 1e-6 * (1.0 + _norm(y))

    def weighted_gram(w):
        return (design * w[:, None]).T @ design / n

    def evaluate(b):
        # the residuals give the recorded loss, the gradient and the weights
        r = y - design @ b
        loss, psi = _hloss_score(r, tau)
        return r, psi, _mean(loss)

    resid, psi, obj = evaluate(beta)
    traj, stop_reason = [obj], "max_iter"

    for _ in range(cfg.max_iter):
        clipped = np.abs(resid) > tau
        w, point = 1.0 - clipped, None  # the Newton weights
        if _certified(data, w):
            beta_new = np.linalg.solve(weighted_gram(w),
                                       design.T @ np.where(clipped, psi, y) / n)
            point = evaluate(beta_new)
            if not (point[2] < obj or np.array_equal(beta_new, beta)):
                point = None
        if point is None:
            w = _weight(resid, tau)
            gram = weighted_gram(w)
            rhs = design.T @ (w * y) / n
            if _certified(data, w):
                beta_new = np.linalg.solve(gram, rhs)
            else:
                beta_new = solve_spd(gram, rhs)
            point = evaluate(beta_new)
        step = _norm(beta_new - beta)
        beta = beta_new
        resid, psi, obj = point
        traj.append(obj)
        if step <= cfg.tol and _norm(design.T @ psi / n) <= grad_tol:
            stop_reason = "converged"
            break

    # the gradient is -design.T @ psi / n; its sign does not change the norm
    grad_norm = _norm(design.T @ psi / n)
    return FitResult(
        beta=beta,
        iterations=len(traj) - 1,
        objective=traj[-1],
        grad_norm=grad_norm,
        stop_reason=stop_reason,
        trajectory=tuple(traj),
    )
