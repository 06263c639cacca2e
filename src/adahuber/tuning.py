"""Data-driven choice of the robustification and penalty levels: plug-in
rules driven by a crude scale estimate, k-fold cross-validation over constant
grids, and a Lepski-type adaptive selection over a geometric scale grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import (
    LIBRARY_ERRORS,
    Dataset,
    DegenerateSampleError,
    HuberParams,
    RankDeficientError,
    _mean,
    predict,
)
from .irls import fit_huber, fit_ols
from .lamm import fit_l1_huber


class TuningError(RuntimeError):
    """Every candidate in a tuning grid failed to produce a fit."""


@dataclass(frozen=True)
class TuningGrid:
    """Cross-validation grid: candidate constants for tau and lam (each
    positive and finite), and the fold count."""

    c_tau_candidates: tuple = (0.5, 1.0, 1.5)
    c_lambda_candidates: tuple = (0.5, 1.0, 1.5)
    folds: int = 3

    def __post_init__(self):
        for name in ("c_tau_candidates", "c_lambda_candidates"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError("candidate lists must be nonempty")
            if not all(math.isfinite(c) and c > 0 for c in values):
                raise ValueError(
                    f"{name} must be positive and finite, got {values!r}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")


def effective_sample_size(n: int, d: int, high_dim: bool) -> float:
    """n in low dimensions, n / log d in high dimensions."""
    if high_dim and d >= 2:
        return n / math.log(d)
    return float(n)


def estimate_sigma_crude(y) -> float:
    """Crude scale estimate: sqrt of the mean squared deviation of y."""
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] < 2:
        raise DegenerateSampleError("need at least two observations")
    var = float(np.mean((y - y.mean()) ** 2))
    if var == 0.0:
        raise DegenerateSampleError("response is constant; scale is zero")
    return math.sqrt(var)


def default_params(
    sigma_hat: float,
    n_eff: float,
    t: float,
    c_tau: float = 1.0,
    c_lambda: float = 1.0,
) -> HuberParams:
    """Plug-in rules assuming finite variance:

    tau = c_tau * sigma_hat * sqrt(n_eff / t)
    lam = c_lambda * sigma_hat * sqrt(t / n_eff)

    The penalty shrinks with the effective sample size, matching the rate
    theory; see the README note on the orientation of this formula.
    """
    if sigma_hat <= 0 or n_eff <= 0 or t <= 0:
        raise ValueError("sigma_hat, n_eff and t must all be positive")
    if c_tau <= 0 or c_lambda <= 0:
        raise ValueError("c_tau and c_lambda must be positive")
    root = math.sqrt(n_eff / t)
    return HuberParams(tau=c_tau * sigma_hat * root, lam=c_lambda * sigma_hat / root)


def plug_in(data: Dataset, high_dim: bool):
    """The finite-variance plug-in rule of ``data`` at t = log n: returns
    ``default_params`` bound to sd(y) and the effective sample size, to be
    called with ``(c_tau, c_lambda)``.  Binding once lets a caller try many
    constants (``cross_validate``) while estimating the scale once."""
    return partial(default_params, estimate_sigma_crude(data.y),
                   effective_sample_size(data.n, data.d, high_dim),
                   math.log(data.n))


def moment_estimate(residuals, delta: float) -> float:
    """(1+delta)-th absolute central sample moment of the residuals."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    r = np.asarray(residuals, dtype=float).ravel()
    if r.shape[0] < 2:
        raise DegenerateSampleError("need at least two residuals")
    return float(np.mean(np.abs(r - r.mean()) ** (1.0 + delta)))


def cross_validate(
    data: Dataset,
    grid: TuningGrid | None = None,
    high_dim: bool = False,
    seed=0,
):
    """Pick (c_tau, c_lambda) by k-fold cross-validation on held-out MAE,
    with the plug-in rules at t = log n.

    Rows are shuffled once with the given seed and split into contiguous
    blocks.  Ties are broken toward the larger c_tau, then the larger
    c_lambda, so the result does not depend on grid ordering.  Failed cells
    are recorded and skipped; if every cell fails a TuningError is raised.

    Returns (c_tau, c_lambda, refit-on-full-data FitResult, cv_table).
    """
    grid = grid or TuningGrid()
    n = data.n
    if grid.folds > n:
        raise ValueError(f"folds ({grid.folds}) exceeds sample size ({n})")
    rule = plug_in(data, high_dim)

    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    blocks = np.array_split(order, grid.folds)
    trains = [data.subset(np.concatenate(blocks[:k] + blocks[k + 1:]))
              for k in range(grid.folds)]
    # In the unpenalized (low-dimensional) branch the fit depends only on
    # c_tau, so fold fits are cached across the c_lambda axis, and every
    # c_tau starts from the fold's one cached OLS solution.
    fold_cache: dict = {}

    def fold_mae(c_tau, c_lambda, k):
        key = (c_tau, k) if not high_dim else (c_tau, c_lambda, k)
        if key in fold_cache:
            return fold_cache[key]
        params = rule(c_tau, c_lambda)
        if high_dim:
            fit = fit_l1_huber(trains[k], params)
        else:
            fit = fit_huber(trains[k], params.tau)
        pred = predict(fit.beta, data.x[blocks[k]], data.intercept)
        value = _mean(np.abs(data.y[blocks[k]] - pred))
        fold_cache[key] = value
        return value

    table = []
    for c_tau in grid.c_tau_candidates:
        for c_lambda in grid.c_lambda_candidates:
            maes, failed = [], False
            for k in range(grid.folds):
                try:
                    maes.append(fold_mae(c_tau, c_lambda, k))
                except LIBRARY_ERRORS:
                    failed = True
                    break
            table.append(
                {
                    "c_tau": c_tau,
                    "c_lambda": c_lambda,
                    "mean_mae": float(np.mean(maes)) if not failed else math.nan,
                    "fold_maes": tuple(maes) if not failed else (),
                    "failed": failed,
                }
            )

    viable = [row for row in table if not row["failed"]]
    if not viable:
        raise TuningError("every cross-validation cell failed")
    best = min(viable, key=lambda r: (r["mean_mae"], -r["c_tau"], -r["c_lambda"]))
    params = rule(best["c_tau"], best["c_lambda"])
    if high_dim:
        fit = fit_l1_huber(data, params)
    else:
        fit = fit_huber(data, params.tau)
    return best["c_tau"], best["c_lambda"], fit, table


@dataclass(frozen=True)
class LepskiGrid:
    """Geometric scale grid sigma_j = sigma_min * a**j, kept while
    sigma_j < a * sigma_max."""

    sigma_min: float
    sigma_max: float
    a: float = 1.5

    def __post_init__(self):
        if not 0 < self.sigma_min <= self.sigma_max:
            raise ValueError("need 0 < sigma_min <= sigma_max")
        if not self.a > 1:
            raise ValueError("grid ratio a must exceed 1")

    @cached_property
    def grid(self) -> tuple:
        out, j = [], 0
        while True:
            sigma = self.sigma_min * self.a**j
            if sigma >= self.a * self.sigma_max:
                break
            out.append(sigma)
            j += 1
        return tuple(out)


def choose_lepski_index(distances: np.ndarray, thresholds) -> tuple[int, bool]:
    """Selection rule on precomputed pairwise distances.

    Returns the smallest index j whose distance to every later grid point
    stays below that j's threshold; falls back to the last index (with a
    warning flag) when no index qualifies.
    """
    m = len(thresholds)
    for j in range(m):
        if all(distances[j, k] <= thresholds[j] for k in range(j + 1, m)):
            return j, False
    return m - 1, True


def lepski_select(data: Dataset, K: float = 3.0, a: float = 1.5):
    """Adaptive choice of the robustification level over a geometric grid.

    The grid is ``LepskiGrid(sigma / K, K * sigma, a)`` around the OLS
    residual scale sigma.  Fits one unpenalized Huber regression per grid
    point with tau_j = sigma_j * sqrt(n / t), t = log n, then selects the
    smallest j whose rescaled distances to all later fits stay within
    8 * L * sigma_j * sqrt(d) * sqrt(t / n), where L is the largest
    sup-norm of the whitened covariate rows.

    Returns (selected FitResult, selected index, diagnostics dict); the
    diagnostics carry every grid point's coefficients under ``betas``.
    """
    design, y, n = data.design, data.y, data.n
    p = data.p
    if n <= p:
        raise RankDeficientError(
            f"need more rows ({n}) than coefficients ({p})"
        )
    ols = fit_ols(data)  # rejects a singular gram before eigh's roots
    evals, vecs = np.linalg.eigh(data.gram)
    root = (vecs * np.sqrt(evals)) @ vecs.T
    inv_root = (vecs / np.sqrt(evals)) @ vecs.T
    l_tilde = float(np.max(np.abs(design @ inv_root)))

    t = math.log(n)
    rss = float(np.sum((y - design @ ols.beta) ** 2))
    sigma_hat = math.sqrt(rss / (n - p))

    sigmas = np.asarray(LepskiGrid(sigma_hat / K, K * sigma_hat, a).grid)
    taus = sigmas * math.sqrt(n / t)
    fits = [fit_huber(data, tau) for tau in taus]

    m = len(fits)
    distances = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            diff = root @ (fits[k].beta - fits[j].beta)
            distances[j, k] = distances[k, j] = float(np.linalg.norm(diff))
    thresholds = 8.0 * l_tilde * sigmas * math.sqrt(p) * math.sqrt(t / n)

    j_hat, fallback = choose_lepski_index(distances, thresholds)
    diagnostics = {
        "sigmas": tuple(float(s) for s in sigmas),
        "taus": tuple(float(v) for v in taus),
        "thresholds": tuple(float(v) for v in thresholds),
        "distances": distances,
        "betas": tuple(fit.beta for fit in fits),
        "l_tilde": l_tilde,
        "t": float(t),
        "fallback": fallback,
    }
    return fits[j_hat], j_hat, diagnostics
