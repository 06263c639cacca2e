"""Unpenalized Huber regression by semismooth Newton steps with an
iteratively reweighted least-squares fallback, plus an ordinary least squares
baseline.  Every system a fit solves goes through ``solve_spd``'s exact rank
check."""

from __future__ import annotations

import numpy as np

from .core import (
    Dataset,
    FitResult,
    RankDeficientError,
    SolverConfig,
    _check_rank,
    _check_tau,
    _loss_score,
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
    """Ordinary least squares via the normal equations (``data.ols_beta``),
    with the loss and gradient norm of fit_huber's cached no-clip answer."""
    obj, grad_norm = data._ols_no_clip
    return FitResult(beta=data.ols_beta.copy(), iterations=1, objective=obj,
                     grad_norm=grad_norm, stop_reason="converged")


def _same_state(a: tuple, b: tuple) -> bool:
    # two (beta, held key) states of fit_huber, where a held key is None or
    # an int8 array: the same bits, so the same next sweep
    (beta_a, key_a), (beta_b, key_b) = a, b
    return (beta_a.tobytes() == beta_b.tobytes()
            and (key_a is None) == (key_b is None)
            and (key_a is None or np.array_equal(key_a, key_b)))


def fit_huber(data: Dataset, tau, cfg: SolverConfig | None = None) -> FitResult:
    """Huber regression by semismooth Newton steps, with an iteratively
    reweighted least-squares sweep as the fallback.

    The Huber objective is quadratic on the rows with |r| <= tau and linear on
    the clipped rest.  A sweep first solves H b = X'(c*y + (1-c)*psi)/n with
    c = 1{|r| <= tau} and H = X'diag(c)X/n: the exact minimizer once the
    clipped set stops changing.  The step is kept only if it strictly lowers
    the loss or returns the current coefficients; otherwise, and where H fails
    the rank check, the sweep solves the weighted normal equations with
    weights ``core._weight(residual, tau)``, which majorize the Huber
    objective.  So the recorded loss trajectory is nonincreasing, up to
    rounding in the loss itself.  A Newton step depends only on the clipped
    rows and their signs, so no kept Newton step recurs while the loss
    strictly falls; once it stops moving, at the float floor, the sweeps can
    alternate between two coefficient vectors a few ulps apart.

    Both systems go through solve_spd, whose exact rank check on the p-by-p
    matrix is the one test of whether a system can be solved.  Neither
    passes it where OLS is rank-deficient.

    A sweep makes no solve when its Newton system is one the current
    coefficients already solve; it still appends its loss and counts as an
    iteration, so ``iterations`` counts sweeps, not solves.  A system is
    keyed by the sign of each clipped row's score (0 on the other rows).
    The coefficients solve the key of the last kept Newton step, which a
    re-solve would return bit for bit, and at the OLS start the key of no
    clipped row.

    Warm-started at the cached OLS solution ``data.ols_beta`` and its cached
    residual (zero vector if OLS is rank-deficient).  Converges once the
    coefficient change drops below ``cfg.tol`` and the gradient is small.
    A sweep is a deterministic map of the coefficients and the held key, so
    one with a zero step is a fixed point that every later sweep repeats, and
    one that returns the coefficients and key of two sweeps back is a
    2-cycle that every later sweep repeats: where the gradient test fails
    there (or the cycle's step exceeds ``cfg.tol``), the fit stops with
    "no_descent".  A tau that clips no OLS residual (tau >= its largest |r|)
    keys the first sweep to the system OLS solves, so the fit returns that
    zero-step sweep from the dataset's cache without running the loop: a
    copy of ``ols_beta``, one iteration, the no-clip loss twice in the
    trajectory, and the gradient test's stop.
    """
    tau = _check_tau(tau)
    cfg = cfg or IRLS_DEFAULTS
    design, y, n = data.design, data.y, data.n
    grad_tol = 1e-6 * (1.0 + _norm(y))
    try:
        # OLS solves the Newton system that clips no row, whose key is 0
        beta, resid = data.ols_beta.copy(), data._ols_resid
        held = np.zeros(n, np.int8)
    except RankDeficientError:
        beta, held = np.zeros(data.p), None
        resid = y - design @ beta
    if held is not None and data._ols_resid_max <= tau:
        obj, grad_norm = data._ols_no_clip
        return FitResult(beta=beta, iterations=1, objective=obj,
                         grad_norm=grad_norm, trajectory=(obj, obj),
                         stop_reason=("converged" if grad_norm <= grad_tol
                                      else "no_descent"))
    obj, psi = _loss_score(resid, tau)

    def weighted_gram(w):
        return (design * w[:, None]).T @ design / n

    def evaluate(b):
        # the residuals give the recorded loss, the gradient and the weights
        r = y - design @ b
        loss, psi = _loss_score(r, tau)
        return r, psi, loss

    traj, stop_reason = [obj], "max_iter"
    # the (beta, held key) states two sweeps back and one sweep back, and the
    # last step: a sweep back to beta two sweeps back takes the exact
    # negation of the last step, so its norm is the same float
    older, old, last_step = None, (beta, held), None

    for _ in range(cfg.max_iter):
        # the sign of each clipped row's score: the key of the Newton system
        key = (resid > tau).view(np.int8) - (resid < -tau).view(np.int8)
        clipped = key != 0
        if held is not None and np.array_equal(key, held):
            # the Newton step would re-solve the system beta already solves
            step = 0.0
        else:
            held = None
            try:
                beta_new = solve_spd(weighted_gram(1.0 - clipped),
                                     design.T @ np.where(clipped, psi, y) / n)
            except RankDeficientError:
                pass  # too few unclipped rows: the IRLS sweep below
            else:
                point = evaluate(beta_new)
                if point[2] < obj or np.array_equal(beta_new, beta):
                    held = key
            if held is None:
                w = _weight(resid, tau)
                beta_new = solve_spd(weighted_gram(w), design.T @ (w * y) / n)
                point = evaluate(beta_new)
            step = _norm(beta_new - beta)
            beta = beta_new
            resid, psi, obj = point
        traj.append(obj)
        cycled = step == last_step and _same_state(older, (beta, held))
        older, old, last_step = old, (beta, held), step
        if step <= cfg.tol or cycled:
            # the gradient is -design.T @ psi / n; its sign does not change the norm
            grad_norm = _norm(design.T @ psi / n)
            if step <= cfg.tol and grad_norm <= grad_tol:
                stop_reason = "converged"
                break
            if not step or cycled:
                stop_reason = "no_descent"
                break
    else:
        grad_norm = _norm(design.T @ psi / n)
    return FitResult(
        beta=beta,
        iterations=len(traj) - 1,
        objective=traj[-1],
        grad_norm=grad_norm,
        stop_reason=stop_reason,
        trajectory=tuple(traj),
    )
