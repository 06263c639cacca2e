"""l1-regularized Huber regression via local adaptive majorize-minimization:
a quadratic surrogate with curvature phi * s_j on coordinate j, where
s_j = ||x_j||^2 / n, with phi starting at 1 and only ever inflated until it
locally majorizes the loss; soft-threshold update; and safeguarded,
restarted FISTA momentum, whose safeguard is dropped for fits that stall at
the float floor short of stationarity."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    Dataset,
    FitResult,
    HuberParams,
    NumericalFailureError,
    SolverConfig,
    _loss_score,
    _score,
    _soft_threshold,
    gradient,
)

LAMM_DEFAULTS = SolverConfig(tol=1e-4, max_iter=5000)

# Slack absorbing float noise in the surrogate-vs-loss comparison: 1e-12,
# or 1e-14 of the starting loss F(0) above an F(0) of 100.  A fixed 1e-12
# lies below the rounding of losses of 1e8 and more, and 1e-14 of the
# current loss below the rounding of its terms where the loss has fallen by
# orders of magnitude from F(0) (d > n); either failed every trial and
# inflated phi until it overflowed.
_MAJORIZE_SLACK = 1e-12
_PHI_OVERFLOW = 1e300

# Factor by which the multiplier phi on the column curvatures s_j inflates
# while the surrogate fails to majorize; phi starts at 1 and never decreases.
GAMMA_U = 2.0

# Stationarity tolerance guaranteed for returned solutions.
KKT_TOL = 1e-4


def _scale(data: Dataset) -> np.ndarray:
    """Column curvatures s_j = ||x_j||^2 / n of the working design: exactly 1
    for the intercept, 1 for an all-zero column; raises if one overflows."""
    design = data.design
    with np.errstate(over="ignore"):
        scale = np.einsum("ij,ij->j", design, design) / data.n
    if not np.isfinite(scale).all():
        raise NumericalFailureError("squared column norm overflow")
    return np.where(scale > 0.0, scale, 1.0)


# validation-free kernels of the solver loop.  A step works from the score
# product h = X'psi at z (the gradient is -h/n) and the vectors that change
# only with phi: the step factor 1/(n phi s_j) and the thresholds
# -+pen_j/(phi s_j), with pen_j the penalty (0 for the intercept).
def _step_vectors(phi, scale, pen, n):
    curv = phi * scale
    kappa = pen / curv
    return 1.0 / (n * curv), -kappa, kappa


def _step(z, h, factor, lo, hi):
    return _soft_threshold(z + factor * h, lo, hi)


def _majorizes(loss_new, loss_old, h, diff, phi, root, n, slack) -> bool:
    # root = sqrt(s_j), so the curvature term phi * diff'(s * diff) is one dot
    w = root * diff
    surrogate = loss_old - float(h @ diff) / n + 0.5 * phi * float(w @ w)
    return surrogate >= loss_new - slack


def _kkt_ok(grad, beta, mask, lam, tol) -> bool:
    # residual of grad + lam*sign(beta); zero penalized coordinates get lam slack
    resid = np.abs(grad + np.where(mask, lam * np.sign(beta), 0.0))
    bound = np.where(mask & (beta == 0.0), lam + tol, tol * (1.0 + lam))
    return bool((resid <= bound).all())


def kkt_satisfied(beta, data: Dataset, tau, lam, tol: float = KKT_TOL) -> bool:
    """Check l1 subgradient optimality of ``beta``.

    Zero coordinates need |grad_j| <= lam + tol; active coordinates need
    |grad_j + lam*sign(beta_j)| <= tol*(1+lam); the unpenalized intercept
    needs |grad_j| <= tol*(1+lam).
    """
    beta = np.asarray(beta, dtype=float).ravel()
    return _kkt_ok(gradient(beta, data, tau), beta, data.penalty_mask,
                   float(lam), float(tol))


def fit_l1_huber(
    data: Dataset, params: HuberParams, cfg: SolverConfig | None = None
) -> FitResult:
    """Solve the l1-penalized Huber problem by monotone accelerated LAMM.

    Coordinate j of the surrogate has curvature phi * s_j (``_scale``).  From
    zero, phi starts at 1, where the surrogate majorizes the loss along any
    one coordinate exactly (psi' <= 1), and is never lowered: each iteration
    keeps the last phi and multiplies it by GAMMA_U until the surrogate at the
    extrapolated point z majorizes the loss at the candidate u.  The MFISTA
    safeguard keeps u only if the penalized objective does not rise, so the
    trajectory never increases; z then takes the FISTA momentum step, or
    restarts at beta after a rejection.
    Converges once an accepted step is at most ``cfg.tol`` and the KKT check
    passes at ``min(KKT_TOL, cfg.tol)``; stops with "no_descent" at the float
    floor, where a step without momentum no longer lowers the objective.  A
    fit that stalls there failing KKT at KKT_TOL (a steep column whose KKT
    moves change the objective below float resolution, so the safeguard can
    no longer rank candidates) keeps the same steps and momentum but accepts
    every candidate from then on, so its objective can rise by rounding,
    until KKT passes, an accepted step moves nothing ("no_descent") or
    ``cfg.max_iter`` is reached.
    The step factor and thresholds (``_step_vectors``) are recomputed only
    when phi changes, and the surrogate may undershoot the loss by
    max(1e-12, 1e-14 F(0)), F(0) being the loss at zero.
    """
    cfg = cfg or LAMM_DEFAULTS
    tau, lam, kkt_tol = params.tau, params.lam, min(KKT_TOL, cfg.tol)
    design, y, n, d = data.design, data.y, data.n, data.d
    mask, pen, scale = data.penalty_mask, lam * data.penalty_mask, _scale(data)
    root = np.sqrt(scale)
    trials, grads = [], 0

    def stop_gradient(resid):  # as kkt_satisfied computes it: one product
        nonlocal grads
        grads += 1
        return -(design.T @ _score(resid, tau)) / n

    # residuals stand in for X beta (always a fresh product) and X z (one
    # combination of fresh ones, so no drift builds up)
    beta, r_beta = np.zeros(data.p), y
    f_beta = _loss_score(y, tau)[0]
    slack = max(_MAJORIZE_SLACK, 1e-14 * f_beta)
    z, r_z, t, phi, grad = beta, y, 1.0, 1.0, None
    factor, lo, hi = _step_vectors(phi, scale, pen, n)
    traj, stop_reason, floor = [f_beta], "max_iter", False
    for _ in range(cfg.max_iter):
        loss_z, psi = _loss_score(r_z, tau)
        h = design.T @ psi
        grads += 1
        for inner in itertools.count(1):
            u = _step(z, h, factor, lo, hi)
            r_u = y - design @ u
            loss_u = _loss_score(r_u, tau)[0]
            if _majorizes(loss_u, loss_z, h, u - z, phi, root, n, slack):
                break
            phi *= GAMMA_U
            if phi > _PHI_OVERFLOW:
                raise NumericalFailureError("quadratic parameter overflow")
            factor, lo, hi = _step_vectors(phi, scale, pen, n)
        trials.append(inner)

        f_u = loss_u + lam * float(np.abs(u[:d]).sum())  # intercept last
        stalled = z is beta and not f_u < f_beta
        if f_u > f_beta and not floor:  # safeguard: keep beta, restart there
            z, r_z, t, step = beta, r_beta, 1.0, np.inf
        else:
            move = u - beta
            step = math.sqrt(float(move @ move))
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            theta = (t - 1.0) / t_next
            z, r_z = u, r_u
            if theta:
                z, r_z = u + theta * move, r_u + theta * (r_u - r_beta)
            beta, r_beta, f_beta, t, grad = u, r_u, f_u, t_next, None
        traj.append(f_beta)
        if floor:  # in the float-floor phase a stall is a step that moves nothing
            stalled = not step
        if step <= cfg.tol or stalled:
            grad = stop_gradient(r_beta) if grad is None else grad
            converged = _kkt_ok(grad, beta, mask, lam, kkt_tol)
            if stalled and not floor and not _kkt_ok(grad, beta, mask, lam, KKT_TOL):
                floor = True  # accept every candidate from here on
            elif converged or stalled:
                stop_reason = "converged" if converged else "no_descent"
                break

    grad = stop_gradient(r_beta) if grad is None else grad
    return FitResult(
        beta=beta, iterations=len(traj) - 1, objective=f_beta,
        grad_norm=float(np.linalg.norm(grad)), stop_reason=stop_reason,
        trajectory=tuple(traj), max_inner=max(trials),
        matvecs=sum(trials) + grads, inner_total=sum(trials),
    )
