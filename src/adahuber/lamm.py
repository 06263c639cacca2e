"""l1-regularized Huber regression via local adaptive majorize-minimization:
a quadratic surrogate with curvature phi * s_j on coordinate j, where
s_j = ||x_j||^2 / n, with phi starting at 1 and only ever inflated until it
locally majorizes the loss; soft-threshold update; safeguarded, restarted
FISTA momentum; and cyclic coordinate sweeps at curvature s_j for fits that
stall at the float floor."""

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
    _hloss_score,
    _mean,
    _score,
    _soft_threshold,
    empirical_loss,
    gradient,
)

LAMM_DEFAULTS = SolverConfig(tol=1e-4, max_iter=5000)

# Absolute slack absorbing float noise in the surrogate-vs-loss comparison.
_MAJORIZE_SLACK = 1e-12
_PHI_OVERFLOW = 1e300

# Factor by which the multiplier phi on the column curvatures s_j inflates
# while the surrogate fails to majorize; phi starts at 1 and never decreases.
GAMMA_U = 2.0

# Stationarity tolerance guaranteed for returned solutions.
KKT_TOL = 1e-4


def lamm_step(beta, data: Dataset, tau, lam, phi) -> np.ndarray:
    """One proximal update at curvature phi * s_j on coordinate j: soft-threshold
    beta_j - g_j/(phi s_j) at lam/(phi s_j); the intercept coordinate, when
    present, has no penalty and so takes the plain scaled gradient step."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    beta = np.asarray(beta, dtype=float).ravel()
    return _step(beta, gradient(beta, data, tau), lam * data.penalty_mask,
                 phi * _scale(data))


def majorization_holds(beta_new, beta_old, data: Dataset, tau, phi) -> bool:
    """Whether the quadratic surrogate at beta_old, of curvature phi * s_j on
    coordinate j, sits above the empirical loss at beta_new (up to float
    slack)."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    new = np.asarray(beta_new, dtype=float).ravel()
    old = np.asarray(beta_old, dtype=float).ravel()
    return _majorizes(empirical_loss(new, data, tau), empirical_loss(old, data, tau),
                      gradient(old, data, tau), new - old, phi, _scale(data))


def _scale(data: Dataset) -> np.ndarray:
    """Column curvatures s_j = ||x_j||^2 / n of the working design: exactly 1
    for the intercept, 1 for an all-zero column; raises if one overflows."""
    design = data.design
    with np.errstate(over="ignore"):
        scale = np.einsum("ij,ij->j", design, design) / data.n
    if not np.isfinite(scale).all():
        raise NumericalFailureError("squared column norm overflow")
    return np.where(scale > 0.0, scale, 1.0)


# validation-free kernels shared by the public wrappers and the solver loop;
# pen and phi in _step are one penalty (0 for the intercept) and one
# curvature per coordinate
def _step(beta, grad, pen, phi):
    v = beta - grad / phi
    return _soft_threshold(v, pen / phi)


def _majorizes(loss_new, loss_old, grad, diff, phi, scale) -> bool:
    surrogate = (loss_old + float(grad @ diff)
                 + 0.5 * phi * float(diff @ (scale * diff)))
    return surrogate >= loss_new - _MAJORIZE_SLACK


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
    moves change the objective below float resolution) spends its later
    iterations on cyclic coordinate sweeps at curvature s_j instead, until
    KKT passes, a sweep changes nothing ("no_descent") or ``cfg.max_iter``
    is reached.
    """
    cfg = cfg or LAMM_DEFAULTS
    tau, lam, kkt_tol = params.tau, params.lam, min(KKT_TOL, cfg.tol)
    design, y, n, mask = data.design, data.y, data.n, data.penalty_mask
    pen = lam * mask
    scale = _scale(data)
    trials, grads = [], 0

    def loss_grad(resid):  # at the point with these residuals: one product
        nonlocal grads
        grads += 1
        vals, psi = _hloss_score(resid, tau)
        return _mean(vals), -(design.T @ psi) / n

    # residuals stand in for X beta (always a fresh product) and X z (one
    # combination of fresh ones, so no drift builds up)
    beta, r_beta = np.zeros(data.p), y
    f_beta = _mean(_hloss_score(y, tau)[0])
    z, r_z, t, phi, grad = beta, y, 1.0, 1.0, None
    traj, stop_reason, cols = [f_beta], "max_iter", None
    for _ in range(cfg.max_iter):
        if cols is None:
            loss_z, grad_z = loss_grad(r_z)
            for inner in itertools.count(1):
                u = _step(z, grad_z, pen, phi * scale)
                r_u = y - design @ u
                loss_u = _mean(_hloss_score(r_u, tau)[0])
                if _majorizes(loss_u, loss_z, grad_z, u - z, phi, scale):
                    break
                phi *= GAMMA_U
                if phi > _PHI_OVERFLOW:
                    raise NumericalFailureError("quadratic parameter overflow")
            trials.append(inner)

            f_u = loss_u + lam * float(np.abs(u[mask]).sum())
            stalled = z is beta and not f_u < f_beta
            if f_u > f_beta:  # safeguard: keep beta, restart the momentum there
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
        else:  # r_beta may be y itself, so the sweep works on a copy
            stalled = not _sweep(cols, beta, r_beta.copy(), scale, pen, tau)
            r_beta = y - design @ beta  # fresh, so no drift carries over
            loss, grad = loss_grad(r_beta)
            f_beta = loss + lam * float(np.abs(beta[mask]).sum())
            step = 0.0  # every sweep takes the KKT test
        traj.append(f_beta)
        if step <= cfg.tol or stalled:
            grad = loss_grad(r_beta)[1] if grad is None else grad
            converged = _kkt_ok(grad, beta, mask, lam, kkt_tol)
            if stalled and cols is None and not _kkt_ok(grad, beta, mask, lam, KKT_TOL):
                cols = np.ascontiguousarray(design.T)  # sweep from here on
            elif converged or stalled:
                stop_reason = "converged" if converged else "no_descent"
                break

    grad = loss_grad(r_beta)[1] if grad is None else grad
    sweeps = len(traj) - 1 - len(trials)
    return FitResult(
        beta=beta, iterations=len(traj) - 1, objective=f_beta,
        grad_norm=float(np.linalg.norm(grad)), stop_reason=stop_reason,
        trajectory=tuple(traj), max_inner=max(trials),
        # a sweep: its column passes (a product each way) and a fresh residual
        matvecs=sum(trials) + grads + 3 * sweeps, inner_total=sum(trials),
    )


def _sweep(cols, beta, resid, scale, pen, tau) -> bool:
    """One cyclic coordinate-descent pass, in place on ``beta`` and ``resid``;
    returns whether it moved any coordinate.

    Coordinate j takes the ``_step`` of its one-dimensional surrogate at
    curvature s_j, which majorizes the loss along x_j exactly because
    psi' <= 1, so in exact arithmetic no pass raises the objective; the
    unpenalized intercept (pen 0) takes the plain step.  The pass
    updates ``resid`` as it goes, while the objective the caller records is
    recomputed from a fresh residual, so the recorded value can still rise
    by float noise: +1.8e-15 on an objective of 10.7 has been seen, and the
    tests allow a rise of 1e-10."""
    n, moved = resid.shape[0], False
    for j in range(beta.shape[0]):
        grad = -(cols[j:j + 1] @ _score(resid, tau)) / n
        new = _step(beta[j:j + 1], grad, pen[j:j + 1], scale[j:j + 1])[0]
        if new != beta[j]:
            resid -= (new - beta[j]) * cols[j]
            beta[j] = new
            moved = True
    return moved
