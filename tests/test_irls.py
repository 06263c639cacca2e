import numpy as np
import pytest

from adahuber.core import Dataset, RankDeficientError
from adahuber.irls import SolverConfig, fit_huber, fit_ols


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
