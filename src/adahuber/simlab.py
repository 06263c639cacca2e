"""Synthetic-data generation and Monte Carlo experiments: the low-dimensional
estimator benchmark, the error-rate phase-transition study, the effective
sample-size alignment study, Monte Carlo checks of the robustification bias
decay and of the truncated-moment bounds, and the Lepski adaptivity study."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._forkjoin import _map_ordered, resolve_threads
from .core import (LIBRARY_ERRORS, Dataset, DegenerateSampleError, HuberParams,
                   SolverConfig, _score)
from .irls import fit_huber, fit_ols
from .lamm import fit_l1_huber
from .tuning import (
    TuningGrid,
    adaptive_tau,
    cross_validate,
    effective_sample_size,
    lepski_select,
    plug_in,
)

GENERATOR_ID = "numpy.default_rng/PCG64"

_NOISE_FAMILIES = ("normal", "student_t", "lognormal")


@dataclass(frozen=True)
class NoiseSpec:
    """Error distribution for synthetic regression data.

    ``param`` is the variance for normal, the degrees of freedom for
    student_t, and the variance of the underlying normal for lognormal,
    whose draws are centered by the analytic mean exp(param / 2) so the
    errors average to zero.  A missing ``param`` (NaN) is rejected.
    """

    family: str
    param: float = math.nan

    def __post_init__(self):
        if self.family not in _NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        floor = 1.0 if self.family == "student_t" else 0.0  # df > 1: finite mean
        if not self.param > floor:
            raise ValueError(f"{self.family} noise needs a parameter > {floor:g}, "
                             f"got {self.param!r}")

    @classmethod
    def normal(cls, variance: float) -> "NoiseSpec":
        return cls("normal", variance)

    @classmethod
    def student_t(cls, df: float) -> "NoiseSpec":
        return cls("student_t", df)

    @classmethod
    def lognormal(cls, log_variance: float) -> "NoiseSpec":
        return cls("lognormal", log_variance)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "student_t":
            return rng.standard_t(self.param, size)
        draws = rng.normal(0.0, math.sqrt(self.param), size)
        if self.family == "normal":
            return draws
        return np.exp(draws) - math.exp(self.param / 2.0)

    def label(self) -> str:
        return f"{self.family}({self.param:g})"


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic-data configuration: dimensions, true coefficients,
    noise family, and the master seed."""

    n: int
    d: int
    beta_star: np.ndarray
    noise: NoiseSpec
    seed: int = 0

    def __post_init__(self):
        beta = np.asarray(self.beta_star, dtype=float).ravel()
        if beta.shape[0] != self.d:
            raise ValueError(
                f"beta_star has length {beta.shape[0]}, expected d={self.d}"
            )
        object.__setattr__(self, "beta_star", beta)


@dataclass
class ExperimentReport:
    """Per-replication records and a summary block."""

    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)


def default_beta_star(d: int) -> np.ndarray:
    """Benchmark coefficient vector (5, -2, 0, 0, 3, 0, ..., 0) of length d."""
    base = np.array([5.0, -2.0, 0.0, 0.0, 3.0])
    out = np.zeros(d)
    out[: min(d, 5)] = base[: min(d, 5)]
    return out


def _rng(seed, *key) -> np.random.Generator:
    # stateless stream split: the (seed, key...) tuple seeds one generator,
    # so no replication depends on execution order
    return np.random.default_rng((int(seed) % 2**64, *key))


def gen_linear_data(spec: ExperimentSpec, rep=0):
    """Draw one dataset: rows of x are standard normal, y = x @ beta + eps.

    Deterministic given (spec.seed, rep); ``rep`` may be an int or a tuple of
    ints naming a replication stream.  Returns (Dataset, beta_star).
    """
    key = rep if isinstance(rep, tuple) else (rep,)
    rng = _rng(spec.seed, *key)
    x = rng.standard_normal((spec.n, spec.d))
    eps = spec.noise.sample(rng, spec.n)
    y = x @ spec.beta_star + eps
    return Dataset(x, y), spec.beta_star.copy()


def _l2_error(fit, target) -> float:
    """l2 distance from the coefficients of ``fit()`` to ``target``; NaN when
    ``fit()`` raises a library error.  Any other error propagates."""
    try:
        beta = fit().beta
    except LIBRARY_ERRORS:
        return math.nan
    return float(np.linalg.norm(beta - target))


def kurtosis(v) -> float:
    """Fourth central moment over squared variance (normal gives about 3)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] < 4:
        raise DegenerateSampleError("kurtosis needs at least four observations")
    centered = v - v.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateSampleError("kurtosis undefined for zero variance")
    return float(np.mean(centered**4)) / m2**2


def _summary(values) -> tuple[float, float, int]:
    """(mean, n-1 std, failure count) over finite entries."""
    arr = np.asarray(values, dtype=float)
    ok = arr[np.isfinite(arr)]
    failed = int(arr.shape[0] - ok.shape[0])
    if ok.shape[0] == 0:
        return math.nan, math.nan, failed
    std = float(np.std(ok, ddof=1)) if ok.shape[0] > 1 else 0.0
    return float(np.mean(ok)), std, failed


TABLE1_NOISES = (
    NoiseSpec.normal(4.0),
    NoiseSpec.student_t(1.5),
    NoiseSpec.lognormal(4.0),
)


# 3-fold CV over these constants for c_tau: one notch below the usual
# {0.5, 1, 1.5}, because CV pins the lower boundary under the heaviest noise
TABLE1_CONSTANTS = (0.25, 0.5, 1.0, 1.5)
TABLE1_GRID = TuningGrid(TABLE1_CONSTANTS, folds=3)


def run_table1(
    reps: int = 100,
    n: int = 100,
    d: int = 5,
    seed: int = 0,
    threads: int | None = None,
) -> ExperimentReport:
    """Estimator benchmark: adaptive Huber (CV-tuned tau over
    ``TABLE1_GRID``, t = log n) against OLS, l2-error per replication for
    each of ``TABLE1_NOISES``.

    Fits include an intercept, whose true coefficient is zero.  Library
    errors are recorded as NaN rows.
    """
    beta = default_beta_star(d)
    target = np.append(beta, 0.0)
    estimators = ("ols", "ahuber")  # the last axis of ``errors``

    def one(noise_i, rep):
        spec = ExperimentSpec(n, d, beta, TABLE1_NOISES[noise_i], seed=seed)
        raw, _ = gen_linear_data(spec, rep=(noise_i, rep))
        data = Dataset(raw.x, raw.y, intercept=True)

        def ahuber():
            return cross_validate(data, TABLE1_GRID, high_dim=False,
                                  seed=(seed % 2**64, noise_i, rep, 1))[2]

        return (_l2_error(lambda: fit_ols(data), target),
                _l2_error(ahuber, target))

    shape = (len(TABLE1_NOISES), reps)
    errors = np.reshape(_map_ordered(one, shape, threads), (*shape, 2))
    rows = [{"noise": noise.label(), "replication": rep, "estimator": name,
             "l2_error": err}
            for noise, by_rep in zip(TABLE1_NOISES, errors.tolist())
            for rep, pair in enumerate(by_rep)
            for name, err in zip(estimators, pair)]
    summary = []
    for noise, errs in zip(TABLE1_NOISES, errors):
        for j in (1, 0):  # ahuber first
            mean, std, failed = _summary(errs[:, j])
            summary.append(
                {"noise": noise.label(), "estimator": estimators[j],
                 "mean_l2_error": mean, "std_l2_error": std, "failed": failed}
            )
    return ExperimentReport(rows=rows, summary=summary)


# a loose solver suffices for the pilot l1 fit, whose residuals only feed a
# moment estimate
_PILOT_CFG = SolverConfig(tol=1e-3, max_iter=2000)


def _pilot_residuals(data: Dataset, rule):
    """Residuals for moment estimation before the main fit.

    OLS residuals when ``rule`` is None and the sample comfortably supports
    them; otherwise an l1-penalized pilot at ``rule`` (``plug_in(data, True)``
    when None) with unit constants (OLS is unavailable once the coefficient
    count approaches n).
    """
    if rule is None and data.n > 2 * data.p:
        return data._ols_resid
    beta = fit_l1_huber(data, (rule or plug_in(data, True))(), _PILOT_CFG).beta
    return data.y - data.design @ beta


def _run_cells(cells, reps: int, seed: int, high_dim: bool, c_tau: float,
               c_lambda: float, threads: int | None) -> np.ndarray:
    """Student-t replications over (n, d, df) cells: pilot residuals,
    ``tuning.adaptive_tau`` with delta = df - 1 - 0.05 and t = log n, then
    the Huber fit (in high dimensions the l1 fit at the plug-in penalty, bound
    once with the pilot's) and its l2 error, NaN on a library error.

    Replication ``rep`` of cell ``i`` draws from stream (seed, i, rep).
    Returns the (cells, reps) array of errors.
    """
    def one(cell, rep):
        n, d, df = cells[cell]
        beta = default_beta_star(d)
        spec = ExperimentSpec(n, d, beta, NoiseSpec.student_t(df), seed=seed)
        data, _ = gen_linear_data(spec, rep=(cell, rep))
        n_eff = effective_sample_size(n, d, high_dim)

        def fit():
            rule = plug_in(data, True) if high_dim else None
            resid = _pilot_residuals(data, rule)
            tau = adaptive_tau(resid, df - 1.0 - 0.05, n_eff, math.log(n), c_tau)
            if rule is None:
                return fit_huber(data, tau)
            lam = rule(c_lambda=c_lambda).lam
            return fit_l1_huber(data, HuberParams(tau=tau, lam=lam))

        return _l2_error(fit, beta)

    shape = (len(cells), reps)
    return np.reshape(_map_ordered(one, shape, threads), shape)


# c_tau of the phase study keeps the truncation level within a few robust
# standard deviations of the heaviest benchmark noise across the n range,
# which is where the error-decay rate is visible; larger constants push the
# fit into its least-squares regime at small n and steepen the measured slope
PHASE_C_TAU = 0.05
PHASE_C_LAMBDA = 1.0
NEFF_DF = 1.5
NEFF_C_TAU = 0.5
NEFF_C_LAMBDA = 0.25


def run_phase_transition(
    df_grid=(1.5, 3.0),
    n: int = 500,
    d: int = 5,
    reps: int = 200,
    high_dim: bool = False,
    seed: int = 0,
    threads: int | None = None,
) -> list:
    """Error decay under Student-t noise of varying tail index.

    For each df the moment order is delta = df - 1 - 0.05; tau is the one
    rate scaled by a pilot-residual moment (``tuning.adaptive_tau``) at
    ``PHASE_C_TAU``, and a high_dim fit's plug-in penalty uses
    ``PHASE_C_LAMBDA``.  Rows report the per-df mean of -log(l2 error), the
    mean error itself, and its standard deviation.
    """
    if any(df <= 1.05 for df in df_grid):
        raise ValueError("every df must exceed 1.05 so that delta > 0")
    errors = _run_cells([(n, d, df) for df in df_grid], reps, seed, high_dim,
                        PHASE_C_TAU, PHASE_C_LAMBDA, threads)
    rows = []
    for df, errs in zip(df_grid, errors):
        ok = errs[np.isfinite(errs)]
        mean, std, failed = _summary(errs)
        neg_log = float(np.mean(-np.log(ok))) if ok.size else math.nan
        rows.append(
            {"df": float(df), "delta": float(df - 1.05), "n": n, "d": d,
             "mean_neg_log_error": neg_log, "mean_l2_error": mean,
             "std_l2_error": std, "failed": failed}
        )
    return rows


def run_neff_experiment(
    d_grid=(100, 500),
    n_grid=(200, 400, 800),
    reps: int = 100,
    seed: int = 0,
    threads: int | None = None,
) -> list:
    """Error versus effective sample size n / log d for the l1 solver.

    The high-dimensional phase-transition replication at df = ``NEFF_DF``
    over a grid of (d, n) cells: tau from ``tuning.adaptive_tau`` at
    n_eff = n / log d and the penalty from the plug-in rule, at
    ``NEFF_C_TAU`` and ``NEFF_C_LAMBDA``.  One row per (d, n).
    """
    cells = [(n, d, NEFF_DF) for d in d_grid for n in n_grid]
    errors = _run_cells(cells, reps, seed, True, NEFF_C_TAU, NEFF_C_LAMBDA,
                        threads)
    rows = []
    for (n, d, _), errs in zip(cells, errors):
        mean, std, failed = _summary(errs)
        rows.append(
            {"d": d, "n": n, "n_eff": effective_sample_size(n, d, True),
             "mean_l2_error": mean, "std_l2_error": std, "failed": failed}
        )
    return rows


def check_bias_decay(
    noise: NoiseSpec,
    tau_grid,
    n_large: int = 100_000,
    seed: int = 0,
) -> list:
    """Robustification bias versus tau, measured at a large sample size.

    The design has d = 5 standard normal covariates.  Fits include an
    intercept, which is where asymmetric noise pushes the population Huber
    coefficient away from the truth; the reported bias is the l2 distance
    between the large-n fit and the true coefficients.  Each
    row also carries a sandwich-style standard error for the fit itself so
    that bias can be told apart from Monte Carlo noise.
    """
    beta = default_beta_star(5)
    spec = ExperimentSpec(n_large, 5, beta, noise, seed=seed)
    raw, _ = gen_linear_data(spec)
    data = Dataset(raw.x, raw.y, intercept=True)
    target = np.append(beta, 0.0)
    trace_inv = float(np.sum(1.0 / data.gram_evals))  # trace of gram^-1

    rows = []
    for tau in tau_grid:
        fit = fit_huber(data, tau)
        resid = data.y - data.design @ fit.beta
        psi = _score(resid, tau)
        active = float(np.mean(np.abs(resid) <= tau))
        var = float(np.mean(psi**2)) / max(active, 1e-12) ** 2 * trace_inv / data.n
        rows.append(
            {
                "tau": float(tau),
                "bias_l2": float(np.linalg.norm(fit.beta - target)),
                "stderr_l2": math.sqrt(max(var, 0.0)),
                "converged": fit.converged,
            }
        )
    return rows


def check_truncated_moments(
    noise: NoiseSpec,
    tau: float,
    kappa: float,
    n_mc: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check of the truncated-moment bounds.

    Estimates E psi_tau(eps), E psi_tau(eps)^2, var(eps) and E|eps|^(2+kappa)
    from n_mc draws and verifies, within three standard errors,

        |E psi_tau(eps)| <= min(sigma^2 / tau, tau^(-1-kappa) E|eps|^(2+kappa))
        sigma^2 - (2/kappa) tau^(-kappa) E|eps|^(2+kappa) <= E psi_tau^2
        E psi_tau^2 <= sigma^2.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return _moment_report(noise.sample(_rng(seed), n_mc), tau, kappa)


def _moment_report(eps: np.ndarray, tau: float, kappa: float) -> dict:
    """The ``check_truncated_moments`` report computed from given draws."""
    n_mc = eps.shape[0]
    root_n = math.sqrt(n_mc)

    def mean_se(v):
        return float(np.mean(v)), float(np.std(v)) / root_n

    psi = _score(eps, tau)
    mean_psi, se_psi = mean_se(psi)
    mean_psi2, se_psi2 = mean_se(psi**2)
    sigma2, se_sigma2 = mean_se(eps**2)
    high, se_high = mean_se(np.abs(eps) ** (2.0 + kappa))

    bound_var = sigma2 / tau
    bound_high = tau ** (-1.0 - kappa) * high
    if bound_var <= bound_high:
        first_bound, first_se = bound_var, se_sigma2 / tau
    else:
        first_bound, first_se = bound_high, tau ** (-1.0 - kappa) * se_high
    first_ok = abs(mean_psi) <= first_bound + 3.0 * (se_psi + first_se)

    report = {
        "tau": float(tau),
        "kappa": float(kappa),
        "n_mc": n_mc,
        "mean_psi": mean_psi,
        "se_psi": se_psi,
        "mean_psi_sq": mean_psi2,
        "se_psi_sq": se_psi2,
        "sigma_sq": sigma2,
        "se_sigma_sq": se_sigma2,
        "abs_moment_2k": high,
        "se_abs_moment_2k": se_high,
        "first_moment_bound": float(first_bound),
        "first_moment_ok": bool(first_ok),
    }
    if kappa > 0:
        lower = sigma2 - (2.0 / kappa) * tau ** (-kappa) * high
        slack = 3.0 * (se_psi2 + se_sigma2 + (2.0 / kappa) * tau ** (-kappa) * se_high)
        report["second_lower_bound"] = float(lower)
        report["second_lower_ok"] = bool(mean_psi2 >= lower - slack)
    report["second_upper_ok"] = bool(mean_psi2 <= sigma2 + 3.0 * (se_psi2 + se_sigma2))
    return report


# the settings of acceptance criteria 6 and 7
MOMENT_NOISE = NoiseSpec.lognormal(1.0)
MOMENT_TAUS = (1.0, 2.0, 4.0, 8.0, 16.0)


def run_moment_checks(n: int = 100_000, seed: int = 0,
                      threads: int | None = None) -> list:
    """Bias decay and truncated-moment bounds under centered lognormal(1)
    noise.

    One row per tau in ``MOMENT_TAUS``: the ``check_bias_decay`` row at
    sample size ``n`` merged with the ``check_truncated_moments`` report at
    kappa = 1 from one set of 10^6 draws.  The moment checks of different
    taus run on the worker processes of ``_map_ordered``, which inherit the
    draws by fork.
    """
    threads = resolve_threads(threads)  # reject a bad count before any work
    bias = check_bias_decay(MOMENT_NOISE, MOMENT_TAUS, n_large=n, seed=seed)
    eps = MOMENT_NOISE.sample(_rng(seed), 1_000_000)  # shared by every tau
    moments = _map_ordered(lambda i: _moment_report(eps, MOMENT_TAUS[i], 1.0),
                           (len(MOMENT_TAUS),), threads)
    return [{**b, **m} for b, m in zip(bias, moments)]


LEPSKI_NOISES = (("normal", NoiseSpec.normal(1.0)),
                 ("t2", NoiseSpec.student_t(2.0)))


def run_lepski_study(n: int = 500, d: int = 5, reps: int = 50, seed: int = 0,
                     threads: int | None = None) -> list:
    """Adaptivity of ``lepski_select`` at its defaults (K = 3, a = 1.5): per
    replication and noise law, the l2 error of the selected fit beside the
    best fixed-tau fit on its grid.

    Replication ``rep`` of either noise draws from stream (seed, rep), so both
    noise laws share the design.  Failures raise.
    """
    beta = default_beta_star(d)

    def one(noise_i, rep):
        label, noise = LEPSKI_NOISES[noise_i]
        data, _ = gen_linear_data(ExperimentSpec(n, d, beta, noise, seed=seed),
                                  rep)
        fit, j_hat, diag = lepski_select(data)
        best = min(float(np.linalg.norm(b - beta)) for b in diag["betas"])
        return {"noise": label, "replication": rep, "selected_index": j_hat,
                "selected_error": float(np.linalg.norm(fit.beta - beta)),
                "best_fixed_error": best}

    return _map_ordered(one, (len(LEPSKI_NOISES), reps), threads)
