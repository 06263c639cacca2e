"""Data-driven choice of the robustification and penalty levels at one rate
(``_rate``): plug-in rules driven by sd(y) or a residual moment, k-fold
cross-validation over constant grids, and a Lepski selection over scales."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .core import (
    LIBRARY_ERRORS,
    Dataset,
    DegenerateSampleError,
    HuberParams,
    RankDeficientError,
    _mae,
    _mean,
    _predict,
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


def _rate(n_eff: float, t: float, delta: float) -> float:
    """(n_eff / t)^(1/(1+delta)), the growth of tau given 1 + delta noise
    moments; ``math.sqrt`` at delta = 1 (``** 0.5`` can be one ulp off)."""
    x = n_eff / t
    return math.sqrt(x) if delta == 1 else x ** (1.0 / (1.0 + delta))


def default_params(
    sigma_hat: float,
    n_eff: float,
    t: float,
    c_tau: float = 1.0,
    c_lambda: float = 1.0,
) -> HuberParams:
    """Plug-in rules assuming finite variance (delta = 1 in ``_rate``):

    tau = c_tau * sigma_hat * sqrt(n_eff / t)
    lam = c_lambda * sigma_hat * sqrt(t / n_eff)

    The penalty divides by the rate, so it shrinks with the effective sample
    size, matching the theory; see the README note on its orientation.
    """
    if sigma_hat <= 0 or n_eff <= 0 or t <= 0:
        raise ValueError("sigma_hat, n_eff and t must all be positive")
    if c_tau <= 0 or c_lambda <= 0:
        raise ValueError("c_tau and c_lambda must be positive")
    root = _rate(n_eff, t, 1.0)
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


def adaptive_tau(residuals, delta: float, n_eff: float, t: float,
                 c_tau: float) -> float:
    """Moment-aware robustification rule c_tau * v_hat * ``_rate`` at
    min(delta, 1), with v_hat the ``moment_estimate`` of the residuals.

    delta is capped at 1: beyond two finite moments the rate saturates and
    higher sample moments only add variance.
    """
    delta_eff = min(delta, 1.0)
    v_hat = moment_estimate(residuals, delta_eff)
    return c_tau * v_hat * _rate(n_eff, t, delta_eff)


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
    # each held-out block is gathered once and scored by core's unvalidated
    # kernels behind predict and mae
    held_out = [(data.x[block], data.y[block]) for block in blocks]

    def fit(sample, params):
        if high_dim:
            return fit_l1_huber(sample, params)
        return fit_huber(sample, params.tau)

    def held_out_mae(params):
        return _mean(np.array([
            _mae(y_k, _predict(fit(train, params).beta, x_k, data.intercept))
            for train, (x_k, y_k) in zip(trains, held_out)]))

    cells = list(product(grid.constants, repeat=2 if high_dim else 1))
    scores = {}
    for cell in cells:
        try:
            scores[cell] = held_out_mae(rule(*cell))
        except LIBRARY_ERRORS:
            pass
    if not scores:
        raise TuningError("every cross-validation cell failed")
    best = min(scores, key=lambda cell: (scores[cell], [-c for c in cell]))
    table = [{"c_tau": cell[0], "c_lambda": cell[1] if high_dim else None,
              "mean_mae": scores.get(cell, math.nan), "failed": cell not in scores,
              "selected": cell == best}
             for cell in cells]
    return best[0], best[1] if high_dim else None, fit(data, rule(*best)), table


def choose_lepski_index(later, thresholds) -> int:
    """Selection rule on each grid point's largest distance to a later point
    (``later``, 0.0 for the last point).

    Returns the smallest index j with later[j] <= thresholds[j], and else the
    last index, which has no later point to be far from.  A NaN distance or
    threshold never qualifies.
    """
    return next((j for j, (dist, thr) in enumerate(zip(later, thresholds))
                 if dist <= thr), len(later) - 1)


# Most points a Lepski grid may have, each one Huber fit.  The defaults make 7
# and K = 100 makes 24, while a ratio a = 1 + 1e-7 would make 2.2e7 (at
# 1 + 1e-12, about 2.2e12: a list that outgrows memory before any fit).
_LEPSKI_MAX_GRID = 1000


def lepski_select(data: Dataset, K: float = 3.0, a: float = 1.5):
    """Adaptive choice of the robustification level over a geometric grid.

    The grid is sigma_j = sigma_min * a**j, kept while sigma_j < a * sigma_max,
    with sigma_min = sigma / K and sigma_max = K * sigma around the OLS
    residual scale sigma; it needs 0 < sigma_min <= sigma_max, a finite a > 1,
    finite powers a**j and at most ``_LEPSKI_MAX_GRID`` (1,000) grid points.
    Fits one unpenalized Huber regression per grid point with
    tau_j = sigma_j * sqrt(n / t) (``_rate`` at delta = 1), t = log n, then
    selects the smallest j whose rescaled distances to all later fits stay
    within 8 * L * sigma_j * sqrt(p) * sqrt(t / n), where p is the number of
    coefficients (d + 1 with an intercept) and L is the largest sup-norm of
    the whitened covariate rows.

    Returns (selected FitResult, selected index, diagnostics dict).  The
    diagnostics hold, per grid point, ``sigmas``, ``taus``, ``thresholds``,
    the ``max_distance_to_later`` the rule compares with them (0.0 at the
    last point) and the coefficients ``betas``; and ``l_tilde`` (L) and ``t``.
    """
    design, n, p = data.design, data.n, data.p
    if n <= p:
        raise RankDeficientError(
            f"need more rows ({n}) than coefficients ({p})"
        )
    resid = data._ols_resid  # rejects a singular gram before eigh's roots
    evals, vecs = np.linalg.eigh(data.gram)
    inv_root = (vecs / np.sqrt(evals)) @ vecs.T
    l_tilde = float(np.max(np.abs(design @ inv_root)))

    t = math.log(n)
    rss = float(np.sum(resid ** 2))
    sigma_hat = math.sqrt(rss / (n - p))

    if not K > 0:  # NaN fails too; checked before sigma_hat / K divides
        raise ValueError(f"K must be positive, got {K!r}")
    sigma_min, sigma_max = sigma_hat / K, K * sigma_hat
    if not 0 < sigma_min <= sigma_max:
        raise ValueError("need 0 < sigma_min <= sigma_max")
    if not a > 1:
        raise ValueError("grid ratio a must exceed 1")
    if a == math.inf:  # a one-point grid, whatever K is
        raise ValueError("grid ratio a must be finite, got inf")
    sigmas = []
    try:
        while (sigma := sigma_min * a**len(sigmas)) < a * sigma_max:
            if len(sigmas) == _LEPSKI_MAX_GRID:
                raise ValueError(f"K = {K!r} and a = {a!r} make a grid of more "
                                 f"than {_LEPSKI_MAX_GRID} points")
            sigmas.append(sigma)
    except OverflowError:
        raise ValueError(f"K = {K!r} and a = {a!r} make a grid ratio "
                         f"a**{len(sigmas)} beyond the float range") from None
    sigmas = np.asarray(sigmas)
    taus = sigmas * _rate(n, t, 1.0)
    fits = [fit_huber(data, tau) for tau in taus]

    # ||G^(1/2) (beta_k - beta_j)|| = ||sqrt(evals) * vecs' (beta_k - beta_j)||
    whitened = np.array([fit.beta for fit in fits]) @ vecs * np.sqrt(evals)
    distances = np.linalg.norm(whitened[:, None] - whitened[None], axis=-1)
    later = np.triu(distances, 1).max(axis=1)  # 0.0 at the last point
    thresholds = 8.0 * l_tilde * sigmas * math.sqrt(p) * math.sqrt(t / n)

    j_hat = choose_lepski_index(later, thresholds)
    diagnostics = {
        "sigmas": tuple(float(s) for s in sigmas),
        "taus": tuple(float(v) for v in taus),
        "thresholds": tuple(float(v) for v in thresholds),
        "max_distance_to_later": tuple(float(v) for v in later),
        "betas": tuple(fit.beta for fit in fits),
        "l_tilde": l_tilde,
        "t": float(t),
    }
    return fits[j_hat], j_hat, diagnostics
