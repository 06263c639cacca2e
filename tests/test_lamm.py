import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adahuber.core import (
    Dataset,
    HuberParams,
    NumericalFailureError,
    empirical_loss,
    gradient,
    objective,
    soft_threshold,
)
from adahuber.irls import SolverConfig, fit_huber
from adahuber.lamm import (
    GAMMA_U,
    PHI0,
    fit_l1_huber,
    kkt_satisfied,
    lamm_step,
    majorization_holds,
)
from adahuber.simlab import (
    ExperimentSpec,
    NoiseSpec,
    default_beta_star,
    gen_linear_data,
)
from adahuber.truncated import default_truncation_params

TIGHT = SolverConfig(tol=1e-8, max_iter=50_000)


def power_iteration_lmax(gram, iters=500):
    """Largest eigenvalue oracle, independent of numpy.linalg.eigh."""
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam = float(np.linalg.norm(w))
        if lam == 0:
            return 0.0
        v = w / lam
    return lam


def prox_gradient_oracle(data, tau, lam, iters=100_000):
    """Fixed-step proximal gradient run to (numerical) fixation."""
    design, n = data.design, data.n
    step = 1.0 / power_iteration_lmax(design.T @ design / n)
    beta = np.zeros(design.shape[1])
    for _ in range(iters):
        new = soft_threshold(beta - step * gradient(beta, data, tau), step * lam)
        if np.linalg.norm(new - beta) < 1e-14:
            beta = new
            break
        beta = new
    return beta


def random_instance(rng, n, d, s=3, noise="t"):
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    support = rng.choice(d, size=min(s, d), replace=False)
    beta[support] = rng.uniform(1, 4, size=len(support)) * rng.choice([-1, 1], len(support))
    eps = rng.standard_t(2.0, n) if noise == "t" else rng.standard_normal(n)
    return Dataset(x, x @ beta + eps), beta


# ------------------------------------------------------------------ lamm_step

def test_step_fixed_point_at_stationarity(rng):
    data, beta = random_instance(rng, 40, 3)
    exact = fit_huber(data, 1.5, SolverConfig(tol=1e-12, max_iter=2000)).beta
    stepped = lamm_step(exact, data, 1.5, lam=0.0, phi=2.0)
    assert np.allclose(stepped, exact, atol=1e-9)


def test_step_is_gradient_descent_when_unpenalized(rng):
    data, _ = random_instance(rng, 30, 4)
    beta = rng.standard_normal(4)
    got = lamm_step(beta, data, 1.0, lam=0.0, phi=1.0)
    scale = np.sum(data.design ** 2, axis=0) / data.n  # column curvatures
    assert np.allclose(got, beta - gradient(beta, data, 1.0) / scale)


def test_step_hand_case():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    got = lamm_step(np.zeros(1), data, tau=2.0, lam=0.4, phi=1.0)
    assert got == pytest.approx([0.6])


def test_step_leaves_intercept_unthresholded(rng):
    x = rng.standard_normal((20, 2))
    data = Dataset(x, rng.standard_normal(20) + 5.0, intercept=True)
    beta = np.zeros(3)
    got = lamm_step(beta, data, 1.0, lam=100.0, phi=1.0)
    grad = gradient(beta, data, 1.0)
    assert got[0] == 0.0 and got[1] == 0.0  # huge penalty zeroes covariates
    assert got[2] == pytest.approx(-grad[2])  # intercept takes the raw step


# ---------------------------------------------------------- majorization test

def test_majorization_trivial_equality(rng):
    data, _ = random_instance(rng, 25, 3)
    beta = rng.standard_normal(3)
    assert majorization_holds(beta, beta, data, 1.0, phi=1e-9)


def test_majorization_with_gram_eigenvalue(rng):
    for _ in range(5):
        data, _ = random_instance(rng, 30, 4)
        lmax = power_iteration_lmax(data.design.T @ data.design / data.n)
        a = rng.standard_normal(4) * 2
        b = rng.standard_normal(4) * 2
        assert majorization_holds(a, b, data, 1.0, phi=lmax)
        assert majorization_holds(b, a, data, 1.0, phi=lmax * 1.001)


def test_majorization_fails_for_tiny_phi(rng):
    data, _ = random_instance(rng, 30, 4)
    beta = rng.standard_normal(4) * 3  # generic non-stationary point
    cand = lamm_step(beta, data, 1.0, lam=0.0, phi=1e-12)
    assert not majorization_holds(cand, beta, data, 1.0, phi=1e-12)


# ---------------------------------------------------------------- fit_l1_huber

def test_zero_solution_for_dominating_lambda():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    grad0 = gradient(np.zeros(1), data, 2.0)
    assert np.max(np.abs(grad0)) == pytest.approx(1.0)
    fit = fit_l1_huber(data, HuberParams(tau=2.0, lam=2.0))
    assert fit.converged
    assert np.array_equal(fit.beta, np.zeros(1))


def test_matches_irls_at_lambda_zero(rng):
    data, _ = random_instance(rng, 60, 4)
    a = fit_l1_huber(data, HuberParams(tau=1.2, lam=0.0), TIGHT).beta
    b = fit_huber(data, 1.2).beta
    assert np.linalg.norm(a - b) <= 1e-4


def test_matches_prox_gradient_oracle(rng):
    data, _ = random_instance(rng, 80, 10, s=3)
    params = HuberParams(tau=1.5, lam=0.15)
    fit = fit_l1_huber(data, params, SolverConfig(tol=1e-7, max_iter=50_000))
    oracle = prox_gradient_oracle(data, 1.5, 0.15)
    assert np.linalg.norm(fit.beta - oracle) <= 1e-4


def test_penalized_objective_descends(rng):
    for _ in range(10):
        n = int(rng.integers(20, 120))
        d = int(rng.integers(5, 60))
        data, _ = random_instance(rng, n, d)
        lam = float(10 ** rng.uniform(-3, 0))
        fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=lam))
        traj = np.asarray(fit.trajectory)
        assert np.all(np.diff(traj) <= 1e-10)


def test_kkt_at_solution(rng):
    data, _ = random_instance(rng, 50, 8)
    params = HuberParams(tau=1.0, lam=0.2)
    fit = fit_l1_huber(data, params)
    assert fit.converged
    assert kkt_satisfied(fit.beta, data, params.tau, params.lam, tol=1e-4)
    # perturbed point must fail the same check
    assert not kkt_satisfied(fit.beta + 0.05, data, params.tau, params.lam, tol=1e-4)


def test_inner_inflation_bounded(rng):
    for _ in range(5):
        data, _ = random_instance(rng, 40, 6)
        cfg = SolverConfig(tol=1e-6, max_iter=20_000)
        fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=0.1), cfg)
        lmax = power_iteration_lmax(data.design.T @ data.design / data.n)
        bound = math.ceil(math.log(lmax / PHI0, GAMMA_U)) + 2
        assert fit.max_inner <= bound


def test_l1_norm_monotone_in_lambda(rng):
    data, _ = random_instance(rng, 60, 8, noise="normal")
    lam_max = float(np.max(np.abs(gradient(np.zeros(8), data, 1.0))))
    lams = np.geomspace(lam_max * 1.2, lam_max * 1e-2, 10)
    norms = []
    for lam in lams:
        fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=float(lam)), TIGHT)
        norms.append(np.sum(np.abs(fit.beta)))
    assert norms[0] == 0.0  # KKT at zero for dominating penalty
    diffs = np.diff(norms)  # lams decrease, so the l1 norm must not either
    assert np.all(diffs >= -1e-8)


def test_scale_equivariance(rng):
    data, _ = random_instance(rng, 50, 6)
    params = HuberParams(tau=1.0, lam=0.2)
    cfg = SolverConfig(tol=1e-6, max_iter=50_000)
    base = fit_l1_huber(data, params, cfg).beta
    for c in (0.5, 3.0, 10.0):
        scaled = fit_l1_huber(
            Dataset(data.x, c * data.y),
            HuberParams(tau=c * 1.0, lam=c * 0.2),
            cfg,
        ).beta
        rel = np.linalg.norm(scaled - c * base) / np.linalg.norm(c * base)
        assert rel <= 1e-5


def test_bitwise_deterministic(rng):
    data, _ = random_instance(rng, 45, 7)
    params = HuberParams(tau=1.0, lam=0.1)
    a = fit_l1_huber(data, params)
    b = fit_l1_huber(data, params)
    assert a.trajectory == b.trajectory
    assert np.array_equal(a.beta, b.beta)


def test_max_iter_soft_failure(rng):
    data, _ = random_instance(rng, 40, 5)
    fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=0.05),
                       SolverConfig(tol=1e-12, max_iter=2))
    assert not fit.converged
    assert fit.iterations == 2


def test_phi_overflow_raises():
    data = Dataset(np.array([[1e155]]), np.array([1.0]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailureError):
            fit_l1_huber(data, HuberParams(tau=1.0, lam=0.0))


def test_intercept_excluded_from_penalty(rng):
    x = rng.standard_normal((60, 3))
    y = x @ np.array([2.0, 0.0, -1.0]) + 7.0 + rng.standard_normal(60)
    data = Dataset(x, y, intercept=True)
    fit = fit_l1_huber(data, HuberParams(tau=5.0, lam=1.0))
    assert fit.converged
    assert fit.beta[-1] == pytest.approx(7.0, abs=0.5)  # intercept not shrunk


def test_objective_value_reported(rng):
    data, _ = random_instance(rng, 30, 4)
    params = HuberParams(tau=1.0, lam=0.3)
    fit = fit_l1_huber(data, params)
    assert fit.objective == pytest.approx(objective(fit.beta, data, params), rel=1e-12)


# ------------------------------------------- acceleration, safeguard, counters

def test_small_lambda_high_dim_converges_monotone():
    # n=300, d=500, Student-t(1.5) noise, tau=1 at lambda_max * 1e-3: plain
    # proximal-gradient speed runs out the default 5,000-iteration cap here
    rng = np.random.default_rng(301)
    n, d = 300, 500
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:5] = [3.0, -2.0, 1.5, -1.0, 2.5]
    data = Dataset(x, x @ beta + rng.standard_t(1.5, n))
    lam = float(np.max(np.abs(gradient(np.zeros(d), data, 1.0)))) * 1e-3
    fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=lam))
    assert fit.converged and fit.stop_reason == "converged"
    assert kkt_satisfied(fit.beta, data, 1.0, lam, tol=1e-4)
    assert np.all(np.diff(fit.trajectory) <= 0)
    assert fit.trajectory[-1] == fit.objective


def test_float_floor_stops_early(rng):
    data, _ = random_instance(rng, 60, 8, noise="normal")
    lam_max = float(np.max(np.abs(gradient(np.zeros(8), data, 1.0))))
    fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=0.2 * lam_max),
                       SolverConfig(tol=1e-8, max_iter=50_000))
    assert fit.stop_reason == "no_descent"
    assert fit.iterations < 1000
    assert np.all(np.diff(fit.trajectory) <= 0)
    # stopped at the floor, not short of it: stationary at the default level
    assert kkt_satisfied(fit.beta, data, 1.0, 0.2 * lam_max, tol=1e-4)


@pytest.mark.parametrize("intercept", [False, True])
def test_first_iteration_is_public_step(rng, intercept):
    x = rng.standard_normal((40, 6))
    data = Dataset(x, x[:, 0] * 2.0 + rng.standard_t(2.0, 40) + 3.0, intercept)
    cfg = SolverConfig(max_iter=1)
    tau, lam, zero = 1.0, 0.05, np.zeros(data.p)
    phi = PHI0
    while not majorization_holds(lamm_step(zero, data, tau, lam, phi), zero,
                                 data, tau, phi):
        phi *= GAMMA_U
    expected = lamm_step(zero, data, tau, lam, phi)
    fit = fit_l1_huber(data, HuberParams(tau=tau, lam=lam), cfg)
    assert fit.beta.tobytes() == expected.tobytes()  # bit for bit
    assert fit.iterations == 1 and fit.stop_reason == "max_iter"
    assert fit.inner_total == fit.max_inner > 1


def test_counters_account_for_the_work(rng):
    data, _ = random_instance(rng, 50, 12)
    fit = fit_l1_huber(data, HuberParams(tau=1.0, lam=0.05))
    assert fit.converged and fit.stop_reason == "converged"
    assert fit.iterations <= fit.inner_total <= fit.iterations * fit.max_inner
    # one product per surrogate trial, one per iteration for the gradient at
    # the extrapolated point, one per stationarity check of the current point
    assert fit.inner_total + fit.iterations < fit.matvecs
    assert fit.matvecs <= fit.inner_total + 2 * fit.iterations + 1
    irls = fit_huber(data, 1.0)
    assert irls.stop_reason == "converged" and irls.matvecs is None


def test_objective_matches_public_loss_bitwise(rng):
    data, _ = random_instance(rng, 70, 9)
    params = HuberParams(tau=0.8, lam=0.1)
    fit = fit_l1_huber(data, params)
    loss = empirical_loss(fit.beta, data, params.tau)
    assert fit.objective == loss + params.lam * float(np.sum(np.abs(fit.beta)))


# ------------------------------------------------------ column-scaled curvature

def contaminated_instance(rep):
    """Acceptance criterion 9's plain-arm fit: n=100, d=20, one entry 1e6."""
    base = default_truncation_params(100, 20, s_guess=3)
    spec = ExperimentSpec(100, 20, default_beta_star(20), NoiseSpec.normal(1.0),
                          seed=99)
    raw, _ = gen_linear_data(spec, rep)
    x = raw.x.copy()
    x[0, 0] = 1e6
    return Dataset(x, raw.y), HuberParams(tau=base.tau, lam=base.lam, varpi=5.0)


def assert_stationary_descent(fit, data, params):
    assert fit.converged and fit.stop_reason == "converged"
    assert kkt_satisfied(fit.beta, data, params.tau, params.lam, tol=1e-4)
    assert np.all(np.diff(fit.trajectory) <= 1e-10)
    assert len(fit.trajectory) == fit.iterations + 1


@pytest.mark.parametrize("rep", [0, 1, 2])
def test_steep_column_converges(rep):
    # the 1e6 entry makes that column's curvature ~1e10 times the others';
    # one shared curvature runs out the 5,000-iteration cap here
    data, params = contaminated_instance(rep)
    fit = fit_l1_huber(data, params)
    assert_stationary_descent(fit, data, params)
    assert fit.iterations < 200
    again = fit_l1_huber(data, params)
    assert again.beta.tobytes() == fit.beta.tobytes()
    assert again.trajectory == fit.trajectory


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), intercept=st.booleans(),
       lam_exp=st.floats(-3.0, 0.0))
def test_random_column_scales_converge(seed, intercept, lam_exp):
    rng = np.random.default_rng(seed)
    data, _ = random_instance(rng, 60, 8)
    x = data.x * 10 ** rng.uniform(-3, 6, size=8)
    data = Dataset(x, data.y + 2.0 * intercept, intercept)
    lam_max = float(np.max(np.abs(gradient(np.zeros(data.p), data, 1.0)[:8])))
    params = HuberParams(tau=1.0, lam=lam_max * 10 ** lam_exp)
    assert_stationary_descent(fit_l1_huber(data, params), data, params)


@pytest.mark.parametrize("intercept", [False, True])
def test_zero_column_stays_zero(rng, intercept):
    data, _ = random_instance(rng, 50, 6)
    x = data.x.copy()
    x[:, 2] = 0.0
    data = Dataset(x, data.y, intercept)
    params = HuberParams(tau=1.0, lam=0.05)
    fit = fit_l1_huber(data, params)
    assert_stationary_descent(fit, data, params)
    assert fit.beta[2] == 0.0


def test_column_norm_overflow_raises_without_warning(rng):
    x = rng.standard_normal((20, 3))
    x[:, 1] *= 1e160  # finite entries, squared norm beyond float range
    data = Dataset(x, rng.standard_normal(20))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailureError):
            fit_l1_huber(data, HuberParams(tau=1.0, lam=0.1))
