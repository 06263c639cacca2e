"""l1-regularized Huber regression via local adaptive majorize-minimization:
isotropic quadratic surrogate inflated until it locally majorizes the loss,
soft-threshold update, and safeguarded, restarted FISTA momentum."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    Dataset,
    HuberParams,
    NumericalFailureError,
    _hloss_score,
    _mean,
    _soft_threshold,
    empirical_loss,
    gradient,
)
from .irls import LAMM_DEFAULTS, FitResult, SolverConfig

# Absolute slack absorbing float noise in the surrogate-vs-loss comparison.
_MAJORIZE_SLACK = 1e-12
_PHI_OVERFLOW = 1e300

# Stationarity tolerance guaranteed for returned solutions.
KKT_TOL = 1e-4


def lamm_step(beta, data: Dataset, tau, lam, phi) -> np.ndarray:
    """One proximal update: soft-threshold the gradient step at lam/phi; the
    intercept coordinate, when present, takes the plain gradient step."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    beta = np.asarray(beta, dtype=float).ravel()
    return _step(beta, gradient(beta, data, tau), lam, phi, data.intercept)


def majorization_holds(beta_new, beta_old, data: Dataset, tau, phi) -> bool:
    """Whether the isotropic quadratic surrogate at beta_old sits above the
    empirical loss at beta_new (up to float slack)."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    new = np.asarray(beta_new, dtype=float).ravel()
    old = np.asarray(beta_old, dtype=float).ravel()
    return _majorizes(empirical_loss(new, data, tau), empirical_loss(old, data, tau),
                      gradient(old, data, tau), new - old, phi)


# validation-free kernels shared by the public wrappers and the solver loop
def _step(beta, grad, lam, phi, intercept):
    v = beta - grad / phi
    out = _soft_threshold(v, lam / phi)
    if intercept:
        out[-1] = v[-1]
    return out


def _majorizes(loss_new, loss_old, grad, diff, phi) -> bool:
    surrogate = loss_old + float(grad @ diff) + 0.5 * phi * float(diff @ diff)
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

    From zero, each iteration warms phi down by one gamma_u (never below phi0)
    and inflates it until the surrogate at the extrapolated point z majorizes
    the loss at the candidate u.  The MFISTA safeguard keeps u only if the
    penalized objective does not rise, so the trajectory never increases; z
    then takes the FISTA momentum step, or restarts at beta after a rejection.
    Converges once an accepted step is at most ``cfg.tol`` and the KKT check
    passes at ``min(KKT_TOL, cfg.tol)``; stops with "no_descent" at the float
    floor, where a step without momentum no longer lowers the objective.
    """
    cfg = cfg or LAMM_DEFAULTS
    tau, lam, kkt_tol = params.tau, params.lam, min(KKT_TOL, cfg.tol)
    design, y, n, d = data.design, data.y, data.n, data.d
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
    z, r_z, t, phi, grad = beta, y, 1.0, cfg.phi0, None
    traj, converged, stop_reason = [f_beta], False, "max_iter"
    for _ in range(cfg.max_iter):
        loss_z, grad_z = loss_grad(r_z)
        phi = max(cfg.phi0, phi / cfg.gamma_u)
        for inner in itertools.count(1):
            u = _step(z, grad_z, lam, phi, data.intercept)
            r_u = y - design @ u
            loss_u = _mean(_hloss_score(r_u, tau)[0])
            if _majorizes(loss_u, loss_z, grad_z, u - z, phi):
                break
            phi *= cfg.gamma_u
            if phi > _PHI_OVERFLOW:
                raise NumericalFailureError("quadratic parameter overflow")
        trials.append(inner)

        f_u = loss_u + lam * float(np.abs(u[:d]).sum())  # intercept (last) is free
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
        traj.append(f_beta)
        if step <= cfg.tol or stalled:
            grad = loss_grad(r_beta)[1] if grad is None else grad
            converged = _kkt_ok(grad, beta, data.penalty_mask, lam, kkt_tol)
            if converged or stalled:
                stop_reason = "converged" if converged else "no_descent"
                break

    grad = loss_grad(r_beta)[1] if grad is None else grad
    return FitResult(
        beta=beta, iterations=len(trials), converged=converged,
        objective=f_beta, grad_norm=float(np.linalg.norm(grad)),
        trajectory=tuple(traj), max_inner=max(trials), stop_reason=stop_reason,
        matvecs=sum(trials) + grads, inner_total=sum(trials),
    )
