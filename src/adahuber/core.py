"""Numerical kernel for adaptive Huber regression.

The records every solver shares (``Dataset``, ``HuberParams``, ``SolverConfig``
and ``FitResult``), the Huber loss, score, IRLS-weight and soft-threshold
kernels the solvers call, the empirical objective and gradient, elementwise
covariate clamping, and the mean absolute error of a prediction.  All
functions are pure.
Non-finite inputs are rejected eagerly instead of being propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class RankDeficientError(ValueError):
    """A (weighted) Gram matrix is numerically singular."""


class DegenerateSampleError(ValueError):
    """A sample carries no usable variation (e.g. constant response)."""


class NumericalFailureError(RuntimeError):
    """An iterative scheme lost numerical viability."""


# the library's error families; every typed solver, sampling, tuning and
# input failure derives from one of them (numpy's LinAlgError from ValueError)
LIBRARY_ERRORS = (ValueError, RuntimeError)


def _check_tau(tau):
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    return tau


# Relative eigenvalue floor below which a Gram matrix is treated as singular.
_RANK_EPS = 1e-12


def _check_rank(evals: np.ndarray) -> None:
    """Reject a Gram matrix, given its ascending eigenvalues, whose smallest
    eigenvalue is not above ``_RANK_EPS`` times its largest."""
    lo, hi = float(evals[0]), float(evals[-1])
    if hi <= 0 or lo <= _RANK_EPS * hi:
        cond = np.inf if lo <= 0 else hi / lo
        raise RankDeficientError(
            f"gram matrix is numerically singular (condition number {cond:.3e})"
        )


def _check_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must contain only finite values")


@dataclass(frozen=True)
class Dataset:
    """Regression sample: n-by-d design matrix ``x`` and response ``y``.

    With ``intercept=True`` a constant-1 column is appended to the working
    design; the corresponding coefficient is never penalized and never
    truncated.  ``column_names`` optionally names the d covariates.

    ``design``, ``gram``, ``gram_evals``, ``ols_beta``, the read-only OLS
    residual, its largest magnitude, and the Huber loss and gradient norm at
    OLS for a tau that clips no row are computed once and cached, so treat
    ``x`` and ``y`` as read-only after construction.
    """

    x: np.ndarray
    y: np.ndarray
    intercept: bool = False
    column_names: list | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        y = np.asarray(self.y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("x must be a nonempty 2-d matrix")
        if y.shape[0] != x.shape[0]:
            raise ValueError(
                f"y has length {y.shape[0]} but x has {x.shape[0]} rows"
            )
        _check_finite(x, "x")
        _check_finite(y, "y")
        if self.column_names is not None and len(self.column_names) != x.shape[1]:
            raise ValueError(
                f"{len(self.column_names)} column names for {x.shape[1]} columns"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def p(self) -> int:
        """Number of fitted coefficients (d, plus one when intercept is on)."""
        return self.d + int(self.intercept)

    @cached_property
    def design(self) -> np.ndarray:
        """Working design matrix; includes the trailing 1s column if any."""
        if self.intercept:
            return np.column_stack([self.x, np.ones(self.n)])
        return self.x

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix ``design.T @ design / n`` of the working design."""
        return self.design.T @ self.design / self.n

    @cached_property
    def gram_evals(self) -> np.ndarray:
        """Ascending eigenvalues of ``gram``."""
        return np.linalg.eigvalsh(self.gram)

    @cached_property
    def ols_beta(self) -> np.ndarray:
        """Read-only OLS coefficients; RankDeficientError if gram is singular."""
        _check_rank(self.gram_evals)
        beta = np.linalg.solve(self.gram, self.design.T @ self.y / self.n)
        beta.flags.writeable = False
        return beta

    @cached_property
    def _ols_resid(self) -> np.ndarray:
        """Read-only OLS residual ``y - design @ ols_beta``; RankDeficientError
        if gram is singular."""
        resid = self.y - self.design @ self.ols_beta
        resid.flags.writeable = False
        return resid

    @cached_property
    def _ols_resid_max(self) -> float:
        """Largest |r| of the OLS residual: a tau at or above it clips no row."""
        return float(np.max(np.abs(self._ols_resid)))

    @cached_property
    def _ols_no_clip(self) -> tuple:
        """Mean Huber loss at OLS and the norm of its gradient design'r/n, the
        same at every tau that clips no OLS residual (the score is r there):
        the objective and gradient norm of fit_ols and of such a fit_huber."""
        loss, psi = _loss_score(self._ols_resid, self._ols_resid_max)
        return loss, _norm(self.design.T @ psi / self.n)

    @cached_property
    def penalty_mask(self) -> np.ndarray:
        """Boolean mask over coefficients; False for the intercept slot."""
        mask = np.ones(self.p, dtype=bool)
        if self.intercept:
            mask[-1] = False
        return mask

    def subset(self, idx) -> "Dataset":
        """Row-subset copy (used by cross-validation folds)."""
        return Dataset(self.x[idx], self.y[idx], self.intercept,
                       self.column_names)


@dataclass(frozen=True)
class HuberParams:
    """Robustification level ``tau``, l1 penalty ``lam`` (0 = unpenalized),
    and optional covariate clamp level ``varpi``."""

    tau: float
    lam: float = 0.0
    varpi: float | None = None

    def __post_init__(self):
        _check_tau(self.tau)
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam!r}")
        if self.varpi is not None and (
            not np.isfinite(self.varpi) or self.varpi <= 0
        ):
            raise ValueError(f"varpi must be positive, got {self.varpi!r}")


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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a regression fit.

    beta        fitted coefficients (working-design order; intercept last)
    iterations  number of outer iterations performed (for LAMM, surrogate
                steps, each with one or more majorization trials)
    objective   final (penalized, where applicable) objective value
    grad_norm   l2 norm of the smooth-loss gradient at ``beta``
    stop_reason "converged", "max_iter" or "no_descent" (an IRLS sweep or LAMM
                step that moves nothing, or IRLS sweeps that return to the
                state of two sweeps back, while the stop test fails)
    trajectory  objective value per iteration, when recorded
    max_inner   largest inner-majorization retry count (LAMM only)
    matvecs, inner_total   design products and surrogate trials (LAMM only)
    """

    beta: np.ndarray
    iterations: int
    objective: float
    grad_norm: float
    stop_reason: str
    trajectory: tuple | None = None
    max_inner: int | None = None
    matvecs: int | None = None
    inner_total: int | None = None

    @property
    def converged(self) -> bool:
        """Whether the fit stopped at a solution (stop_reason "converged")."""
        return self.stop_reason == "converged"


def _as_float_array(x, name):
    a = np.asarray(x, dtype=float)
    _check_finite(a, name)
    return a


# Unvalidated kernels behind every loss, score and shrinkage: the score is the
# clamp of r to [-tau, tau], the loss psi * (r - psi/2) (finite if tau*|r| is).
def _score(r, tau):
    return np.minimum(np.maximum(r, -tau), tau)


def _loss_score(r, tau):
    """Mean Huber loss of the residuals r and their scores psi, the loss taken
    as (psi'r - psi'psi/2) / n: four passes over r.  Since |psi| <= |r| with
    the sign of r, psi'r >= psi'psi, so the difference keeps at least half of
    psi'r and no cancellation occurs."""
    psi = _score(r, tau)
    return (float(psi @ r) - 0.5 * float(psi @ psi)) / r.shape[0], psi


def _mean(v) -> float:
    # np.mean's arithmetic without its Python-level dispatch
    return float(np.add.reduce(v)) / v.shape[0]


def _norm(v) -> float:
    # np.linalg.norm's arithmetic for a real vector without its dispatch
    return math.sqrt(float(v @ v))


def _soft_threshold(v, lo, hi):
    # v less its clamp to [lo, hi] = [-kappa, kappa]: both bounds are passed,
    # so a caller that shrinks by the same thresholds often negates them once
    return v - np.minimum(np.maximum(v, lo), hi)


def _predict(beta, x, intercept):
    # x @ beta, with the intercept (beta's last entry) added after the product
    out = x @ beta[:x.shape[1]]
    if intercept:
        out = out + beta[-1]
    return out


def _mae(a, b):
    return _mean(np.abs(a - b))


def _weight(r, tau):
    # psi(r)/r: exactly 1 wherever |r| <= tau, so also at 0 and -0.0
    return tau / np.maximum(np.abs(r), tau)


def residuals(beta, data: Dataset) -> np.ndarray:
    beta = _as_float_array(beta, "beta").ravel()
    if beta.shape[0] != data.p:
        raise ValueError(
            f"beta has length {beta.shape[0]}, expected {data.p}"
        )
    return data.y - data.design @ beta


def empirical_loss(beta, data: Dataset, tau) -> float:
    """Average Huber loss of the residuals (no penalty term)."""
    tau = _check_tau(tau)
    return _loss_score(residuals(beta, data), tau)[0]


def objective(beta, data: Dataset, params: HuberParams) -> float:
    """Penalized empirical objective; the intercept is never penalized."""
    value = empirical_loss(beta, data, params.tau)
    if params.lam > 0:
        beta = np.asarray(beta, dtype=float).ravel()
        value += params.lam * float(np.sum(np.abs(beta[data.penalty_mask])))
    return value


def gradient(beta, data: Dataset, tau) -> np.ndarray:
    """Gradient of the empirical loss: -mean of psi_tau(residual) * x_i."""
    tau = _check_tau(tau)
    return -(data.design.T @ _score(residuals(beta, data), tau)) / data.n


def truncate_matrix(x, varpi):
    """Clamp every entry of x to [-varpi, varpi]."""
    varpi = float(varpi)
    if not np.isfinite(varpi) or varpi <= 0:
        raise ValueError(f"varpi must be positive, got {varpi!r}")
    return np.clip(_as_float_array(x, "x"), -varpi, varpi)


def predict(beta, x, intercept: bool = False) -> np.ndarray:
    """Fitted values for new covariate rows under a fitted coefficient vector."""
    beta = np.asarray(beta, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    d = x.shape[1]
    if beta.shape[0] != d + int(intercept):
        raise ValueError(
            f"beta has length {beta.shape[0]}, expected {d + int(intercept)}"
        )
    return _predict(beta, x, intercept)


def mae(y_true, y_pred) -> float:
    """Mean absolute difference between two equal-length vectors."""
    a = np.asarray(y_true, dtype=float).ravel()
    b = np.asarray(y_pred, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return _mae(a, b)
