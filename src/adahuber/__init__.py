"""Adaptive Huber regression toolkit.

Robust linear regression whose robustification level grows with the sample
size: a semismooth Newton solver with an IRLS fallback for the unpenalized
estimator, a column-scaled majorize-minimization solver for the
l1-penalized estimator, a truncated-covariate variant for heavy-tailed
designs, data-driven tuning, and a Monte Carlo simulation lab.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    DegenerateSampleError,
    FitResult,
    HuberParams,
    NumericalFailureError,
    RankDeficientError,
    SolverConfig,
    gradient,
    mae,
    objective,
    predict,
    truncate_matrix,
)
from .irls import fit_huber, fit_ols
from .lamm import fit_l1_huber, kkt_satisfied
from .truncated import default_truncation_params, fit_truncated, predict_truncated
from .tuning import (
    TuningGrid,
    TuningError,
    cross_validate,
    default_params,
    effective_sample_size,
    estimate_sigma_crude,
    lepski_select,
    moment_estimate,
    plug_in,
)
from .simlab import (
    ExperimentReport,
    ExperimentSpec,
    NoiseSpec,
    check_bias_decay,
    check_truncated_moments,
    gen_linear_data,
    kurtosis,
    run_lepski_study,
    run_moment_checks,
    run_neff_experiment,
    run_phase_transition,
    run_table1,
)

__all__ = [
    "Dataset",
    "HuberParams",
    "SolverConfig",
    "FitResult",
    "TuningGrid",
    "NoiseSpec",
    "ExperimentSpec",
    "ExperimentReport",
    "RankDeficientError",
    "DegenerateSampleError",
    "NumericalFailureError",
    "TuningError",
    "objective",
    "gradient",
    "truncate_matrix",
    "predict",
    "fit_ols",
    "fit_huber",
    "kkt_satisfied",
    "fit_l1_huber",
    "fit_truncated",
    "predict_truncated",
    "default_truncation_params",
    "estimate_sigma_crude",
    "default_params",
    "plug_in",
    "effective_sample_size",
    "moment_estimate",
    "cross_validate",
    "lepski_select",
    "gen_linear_data",
    "run_table1",
    "run_phase_transition",
    "run_neff_experiment",
    "run_moment_checks",
    "run_lepski_study",
    "check_bias_decay",
    "check_truncated_moments",
    "kurtosis",
    "mae",
]
