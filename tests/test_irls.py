import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from adahuber import irls
from adahuber.core import (
    Dataset,
    RankDeficientError,
    _hloss_score,
    _mean,
    _weight,
)
from adahuber.irls import IRLS_DEFAULTS, SolverConfig, fit_huber, fit_ols, solve_spd


def golden_section_1d(f, lo, hi, tol=1e-10):
    """Independent 1-d convex minimizer used as an oracle."""
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2


def huber_vals(r, tau):
    a = np.abs(r)
    m = np.minimum(a, tau)
    return 0.5 * m * m + tau * (a - m)


# ----------------------------------------------------------------------- ols

def test_ols_exact_interpolation(rng):
    x = rng.standard_normal((30, 4))
    beta = np.array([2.0, -1.0, 0.0, 3.0])
    fit = fit_ols(Dataset(x, x @ beta))
    assert np.allclose(fit.beta, beta, atol=1e-8)
    assert fit.grad_norm <= 1e-8 * (1 + np.linalg.norm(x @ beta))


def test_ols_sample_mean_case():
    data = Dataset(np.ones((4, 1)), np.array([-1.0, 0.0, 1.0, 10.0]))
    fit = fit_ols(data)
    assert fit.beta[0] == pytest.approx(2.5, abs=1e-12)


def test_ols_matches_normal_equations(rng):
    x = rng.standard_normal((50, 5))
    y = rng.standard_normal(50)
    fit = fit_ols(Dataset(x, y))
    oracle = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(fit.beta, oracle, atol=1e-8)


def test_ols_rank_deficient_names_condition_number():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficientError, match="condition number"):
        fit_ols(Dataset(x, np.array([1.0, 2.0, 3.0])))


def test_ols_cache_cannot_be_corrupted(rng):
    x = rng.standard_normal((80, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(2.0, 80)
    data = Dataset(x, y, intercept=True)
    with pytest.raises(ValueError, match="read-only"):
        data.ols_beta[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.ols_beta = np.zeros(data.p)
    fit_ols(data).beta[:] = 1e6
    fresh = Dataset(x, y, intercept=True)
    assert fit_huber(data, 1.0).beta.tobytes() == fit_huber(fresh, 1.0).beta.tobytes()


# --------------------------------------------------------------------- huber

def test_huber_reduces_to_ols_for_huge_tau(rng):
    x = rng.standard_normal((40, 3))
    y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(40)
    data = Dataset(x, y)
    assert np.allclose(fit_huber(data, 1e12).beta, fit_ols(data).beta, atol=1e-8)


def test_huber_univariate_mean_tau_one():
    data = Dataset(np.ones((4, 1)), np.array([-1.0, 0.0, 1.0, 10.0]))
    fit = fit_huber(data, 1.0)
    assert fit.converged
    # stationarity of sum psi_1(y_i - b) reduces to 1 - 2b = 0 on [0, 1];
    # cross-checked by a two-stage grid scan of the objective
    grid = np.arange(-5.0, 15.0, 1e-3)
    vals = [np.mean(huber_vals(data.y - g, 1.0)) for g in grid]
    coarse = grid[int(np.argmin(vals))]
    fine = np.arange(coarse - 2e-3, coarse + 2e-3, 1e-6)
    fvals = [np.mean(huber_vals(data.y - g, 1.0)) for g in fine]
    oracle = fine[int(np.argmin(fvals))]
    assert oracle == pytest.approx(0.5, abs=1e-5)
    assert fit.beta[0] == pytest.approx(0.5, abs=1e-6)


def test_huber_exact_fit_any_tau(rng):
    x = rng.standard_normal((25, 3))
    beta = np.array([4.0, 0.0, -2.0])
    data = Dataset(x, x @ beta)
    for tau in (0.1, 1.0, 50.0):
        fit = fit_huber(data, tau)
        assert np.allclose(fit.beta, beta, atol=1e-8)


def test_huber_trajectory_monotone(rng):
    x = rng.standard_normal((60, 4))
    y = x @ np.array([1.0, -1.0, 2.0, 0.0]) + rng.standard_t(1.5, 60)
    fit = fit_huber(Dataset(x, y), 1.0)
    traj = np.asarray(fit.trajectory)
    assert np.all(np.diff(traj) <= 1e-10)


def test_huber_1d_oracle_equivalence(rng):
    for _ in range(25):
        n = int(rng.integers(10, 60))
        x = rng.standard_normal((n, 1)) * rng.uniform(0.5, 2)
        y = x[:, 0] * rng.uniform(-3, 3) + rng.standard_t(2.0, n)
        tau = float(rng.uniform(0.3, 5.0))
        data = Dataset(x, y)
        fit = fit_huber(data, tau)

        def f(b):
            return float(np.mean(huber_vals(y - x[:, 0] * b, tau)))

        oracle = golden_section_1d(f, -30.0, 30.0)
        assert fit.beta[0] == pytest.approx(oracle, abs=1e-4)


def test_huber_scale_equivariance(rng):
    x = rng.standard_normal((50, 3))
    y = x @ np.array([2.0, -1.0, 0.5]) + rng.standard_t(2.0, 50)
    data = Dataset(x, y)
    base = fit_huber(data, 1.0).beta
    for c in (0.5, 3.0, 10.0):
        scaled = fit_huber(Dataset(x, c * y), c * 1.0).beta
        assert np.allclose(scaled, c * base, rtol=1e-6, atol=1e-9)


def test_huber_row_permutation_invariance(rng):
    x = rng.standard_normal((40, 3))
    y = x @ np.array([1.0, 2.0, 3.0]) + rng.standard_normal(40)
    perm = rng.permutation(40)
    a = fit_huber(Dataset(x, y), 1.5).beta
    b = fit_huber(Dataset(x[perm], y[perm]), 1.5).beta
    assert np.allclose(a, b, atol=1e-10)


def test_huber_robust_to_single_corruption(rng):
    x = rng.standard_normal((50, 3))
    beta = np.array([3.0, -2.0, 1.0])
    y = x @ beta + rng.standard_normal(50)
    clean = fit_huber(Dataset(x, y), 1.0).beta
    ols_clean = fit_ols(Dataset(x, y)).beta
    y_bad = y.copy()
    y_bad[7] += 1e6
    huber_shift = np.linalg.norm(fit_huber(Dataset(x, y_bad), 1.0).beta - clean)
    ols_shift = np.linalg.norm(fit_ols(Dataset(x, y_bad)).beta - ols_clean)
    assert huber_shift < 0.1 * np.linalg.norm(clean)
    assert ols_shift > 1.0 * np.linalg.norm(ols_clean)


def test_huber_max_iter_soft_failure(rng):
    x = rng.standard_normal((30, 2))
    y = x @ np.array([1.0, -1.0]) + rng.standard_t(1.5, 30)
    cfg = SolverConfig(tol=1e-14, max_iter=1)
    fit = fit_huber(Dataset(x, y), 0.5, cfg)
    assert not fit.converged
    assert fit.iterations == 1


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_huber_gradient_small_at_solution(rng):
    x = rng.standard_normal((80, 4))
    y = x @ np.array([1.0, 0.0, -2.0, 0.5]) + rng.standard_t(2.0, 80)
    fit = fit_huber(Dataset(x, y), 1.0)
    assert fit.converged
    assert fit.grad_norm <= 1e-6 * (1 + np.linalg.norm(y))


def test_fit_huber_takes_one_spectrum_per_dataset(rng, eigvalsh_calls):
    x = rng.standard_normal((80, 4))
    y = x @ np.array([1.0, 0.0, -2.0, 0.5]) + rng.standard_t(2.0, 80)
    fit = fit_huber(Dataset(x, y, intercept=True), 1.0)
    assert fit.converged and fit.iterations > 1
    assert len(eigvalsh_calls) == 1


# ------------------------------------------------- sweep against exact checks

def exact_check_fit_huber(data, tau, cfg=IRLS_DEFAULTS):
    """Oracle: OLS start and IRLS sweeps with solve_spd's eigenvalue rank
    check on every solve; returns the fields of fit_huber's FitResult."""
    design, y, n = data.design, data.y, data.n
    try:
        beta = solve_spd(design.T @ design / n, design.T @ y / n)
    except RankDeficientError:
        beta = np.zeros(data.p)
    grad_tol = 1e-6 * (1.0 + float(np.linalg.norm(y)))
    resid = y - design @ beta
    loss, psi = _hloss_score(resid, tau)
    traj = [_mean(loss)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        w = _weight(resid, tau)
        gram = (design * w[:, None]).T @ design / n
        beta_new = solve_spd(gram, design.T @ (w * y) / n)
        step = float(np.linalg.norm(beta_new - beta))
        beta = beta_new
        iterations += 1
        resid = y - design @ beta
        loss, psi = _hloss_score(resid, tau)
        traj.append(_mean(loss))
        if step <= cfg.tol and np.linalg.norm(design.T @ psi / n) <= grad_tol:
            converged = True
            break
    grad_norm = float(np.linalg.norm(design.T @ psi / n))
    return beta, iterations, converged, traj[-1], grad_norm, tuple(traj)


@st.composite
def irls_cases(draw):
    d = draw(st.integers(1, 4))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(8, 60)),
        scales=draw(st.lists(st.floats(-6, 6), min_size=d, max_size=d)),
        # log10 of the relative gap of the last column from the first
        collinear=draw(st.none() | st.floats(-15, -2)),
        outliers=draw(st.integers(0, 3)),
        outlier_size=draw(st.floats(2, 12)),
        intercept=draw(st.booleans()),
        log_tau=draw(st.floats(-2, 2)),
    )


def irls_case_data(case):
    rng = np.random.default_rng(case["seed"])
    n, scales = case["n"], 10.0 ** np.asarray(case["scales"])
    x = rng.standard_normal((n, len(scales))) * scales
    if case["collinear"] is not None and len(scales) >= 2:
        x[:, -1] = (x[:, 0] + 10.0 ** case["collinear"] * scales[0]
                    * rng.standard_normal(n)) * scales[-1] / scales[0]
    y = x @ (rng.standard_normal(len(scales)) / scales) + rng.standard_t(2.0, n)
    y[: case["outliers"]] += 10.0 ** case["outlier_size"] * rng.choice(
        [-1.0, 1.0], case["outliers"])
    return Dataset(x, y, intercept=case["intercept"]), 10.0 ** case["log_tau"]


WELL_POSED = dict(seed=1, n=50, scales=[0.0, 1.0], collinear=None, outliers=0,
                  outlier_size=2.0, intercept=True, log_tau=0.0)
# near-collinear columns and a huge outlier: the bound fails, the check passes
EXACT_ONLY = dict(seed=2, n=50, scales=[0.0, 0.0], collinear=-4.0, outliers=1,
                  outlier_size=10.0, intercept=False, log_tau=0.0)


def test_sweep_matches_the_exact_check_oracle(monkeypatch):
    real, solves = irls.solve_spd, []

    def counted(gram, rhs):
        solves.append(gram)
        return real(gram, rhs)

    monkeypatch.setattr(irls, "solve_spd", counted)
    sweeps = {"certified": 0, "exact": 0}

    @given(irls_cases())
    @example(WELL_POSED)
    @example(EXACT_ONLY)
    def check(case):
        data, tau = irls_case_data(case)
        try:
            want = exact_check_fit_huber(data, tau)
        except RankDeficientError as exc:
            want = str(exc)
        solves.clear()
        try:
            fit = fit_huber(data, tau)
        except RankDeficientError as exc:
            assert str(exc) == want
            sweeps["exact"] += len(solves)
            return
        beta, iterations, converged, obj, grad_norm, traj = want
        assert fit.beta.tobytes() == beta.tobytes()
        assert (fit.iterations, fit.converged) == (iterations, converged)
        assert (np.array([fit.objective, fit.grad_norm, *fit.trajectory]).tobytes()
                == np.array([obj, grad_norm, *traj]).tobytes())
        sweeps["exact"] += len(solves)
        sweeps["certified"] += fit.iterations - len(solves)

    check()
    assert sweeps["certified"] > 0 and sweeps["exact"] > 0
