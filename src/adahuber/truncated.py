"""Huber regression for heavy-tailed covariates: clamp the design entries to
[-varpi, varpi], then run the l1-regularized solver on the clamped data."""

from __future__ import annotations

import math

import numpy as np

from .core import (Dataset, FitResult, HuberParams, SolverConfig, predict,
                   truncate_matrix)
from .lamm import fit_l1_huber
from .tuning import effective_sample_size


def fit_truncated(
    data: Dataset, params: HuberParams, cfg: SolverConfig | None = None
) -> FitResult:
    """Fit with elementwise-clamped covariates.

    Equivalent to ``fit_l1_huber`` on a copy of the data whose raw design has
    been clamped to [-varpi, varpi]; the intercept column (appended after
    clamping) is exempt.  Coefficients are reported against the clamped
    design, so predictions for new covariates must clamp them too (see
    ``predict_truncated``).
    """
    if params.varpi is None:
        raise ValueError("params.varpi is required for the truncated fit")
    clamped = Dataset(
        truncate_matrix(data.x, params.varpi), data.y, data.intercept
    )
    return fit_l1_huber(clamped, params, cfg)


def predict_truncated(beta, x, varpi, intercept: bool = False) -> np.ndarray:
    """Fitted values under a truncated-design fit: clamp, then predict."""
    return predict(beta, truncate_matrix(x, varpi), intercept)


def default_truncation_params(
    n: int, d: int, s_guess: int | None = None
) -> HuberParams:
    """Parameter scalings for the truncated-covariate estimator.

    tau   = sqrt(s_guess) * (n / log d)^(1/4)
    varpi = (n / log d)^(1/4)
    lam   = sqrt(s_guess * log(d) / n)

    ``s_guess`` stands in for the unknown sparsity; it defaults to
    ceil(sqrt(d)).
    """
    if d < 2:
        raise ValueError("d must be at least 2 so that log d is positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    if s_guess is None:
        s_guess = max(1, math.ceil(math.sqrt(d)))
    if s_guess < 1:
        raise ValueError("s_guess must be a positive integer")
    ratio = effective_sample_size(n, d, True)
    return HuberParams(
        tau=math.sqrt(s_guess) * ratio**0.25,
        lam=math.sqrt(s_guess * math.log(d) / n),
        varpi=ratio**0.25,
    )
