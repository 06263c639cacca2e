"""Data-driven choice of the robustification and penalty levels: plug-in
rules driven by a crude scale estimate, k-fold cross-validation over constant
grids, and a Lepski-type adaptive selection over a geometric scale grid."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

import numpy as np

from .core import (
    LIBRARY_ERRORS,
    Dataset,
    DegenerateSampleError,
    HuberParams,
    RankDeficientError,
    mae,
    predict,
)
from .irls import fit_huber
from .lamm import fit_l1_huber


class TuningError(RuntimeError):
    """Every candidate in a tuning grid failed to produce a fit."""


@dataclass(frozen=True)
class TuningGrid:
    """Cross-validation grid: the candidate constants (distinct, each
    positive and finite) for c_tau, and for c_lambda in high dimensions,
    and the fold count."""

    constants: tuple = (0.5, 1.0, 1.5)
    folds: int = 3

    def __post_init__(self):
        if len(self.constants) == 0:
            raise ValueError("the constant list must be nonempty")
        if not all(math.isfinite(c) and c > 0 for c in self.constants):
            raise ValueError(
                f"constants must be positive and finite, got {self.constants!r}")
        if len(set(self.constants)) < len(self.constants):
            raise ValueError(
                f"constants must be distinct, got {self.constants!r}")
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
    """Pick the plug-in constants by k-fold cross-validation on held-out MAE,
    with the plug-in rules at t = log n.  Low dimensions search c_tau over
    ``grid.constants``; high dimensions search every (c_tau, c_lambda) pair,
    because only the l1-penalized fit reads the penalty.

    Rows are shuffled once with the given seed and split into contiguous
    blocks.  Ties are broken toward the larger c_tau, then the larger
    c_lambda, so the result does not depend on grid ordering.  Failed cells
    are recorded and skipped; if every cell fails a TuningError is raised.

    Returns (c_tau, c_lambda, refit-on-full-data FitResult, cv_table), with
    c_lambda None in low dimensions, in the returned pair and in every row.
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

    def fit(sample, params):
        if high_dim:
            return fit_l1_huber(sample, params)
        return fit_huber(sample, params.tau)

    def held_out_mae(params):
        maes = []
        for train, block in zip(trains, blocks):
            pred = predict(fit(train, params).beta, data.x[block], data.intercept)
            maes.append(mae(data.y[block], pred))
        return float(np.mean(maes))

    cells = list(product(grid.constants, repeat=2 if high_dim else 1))
    scores = {}
    for cell in cells:
        try:
            scores[cell] = held_out_mae(rule(*cell))
        except LIBRARY_ERRORS:
            pass
    table = [{"c_tau": cell[0], "c_lambda": cell[1] if high_dim else None,
              "mean_mae": scores.get(cell, math.nan), "failed": cell not in scores}
             for cell in cells]
    if not scores:
        raise TuningError("every cross-validation cell failed")
    best = min(scores, key=lambda cell: (scores[cell], [-c for c in cell]))
    return best[0], best[1] if high_dim else None, fit(data, rule(*best)), table


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
    resid = y - design @ data.ols_beta  # rejects a singular gram before eigh's roots
    evals, vecs = np.linalg.eigh(data.gram)
    inv_root = (vecs / np.sqrt(evals)) @ vecs.T
    l_tilde = float(np.max(np.abs(design @ inv_root)))

    t = math.log(n)
    rss = float(np.sum(resid ** 2))
    sigma_hat = math.sqrt(rss / (n - p))

    sigmas = np.asarray(LepskiGrid(sigma_hat / K, K * sigma_hat, a).grid)
    taus = sigmas * math.sqrt(n / t)
    fits = [fit_huber(data, tau) for tau in taus]

    # ||G^(1/2) (beta_k - beta_j)|| = ||sqrt(evals) * vecs' (beta_k - beta_j)||
    whitened = np.array([fit.beta for fit in fits]) @ vecs * np.sqrt(evals)
    distances = np.linalg.norm(whitened[:, None] - whitened[None], axis=-1)
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
