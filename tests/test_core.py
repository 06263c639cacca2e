import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adahuber.core import (
    Dataset,
    HuberParams,
    empirical_loss,
    gradient,
    huber_loss,
    huber_score,
    irls_weight,
    objective,
    predict,
    soft_threshold,
    truncate_matrix,
    _weight,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_tau = st.floats(min_value=1e-3, max_value=1e3)


# ---------------------------------------------------------------- huber_loss

def test_loss_zero_residual():
    assert huber_loss(0.0, 1.0) == 0.0


def test_loss_quadratic_branch():
    assert huber_loss(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)


def test_loss_linear_branch():
    assert huber_loss(3.0, 1.0) == pytest.approx(2.5, abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        huber_loss(bad, 1.0)


@pytest.mark.parametrize("bad_tau", [0.0, -1.0, np.nan])
def test_loss_rejects_bad_tau(bad_tau):
    with pytest.raises(ValueError):
        huber_loss(1.0, bad_tau)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_boundary_smoothness(tau):
    # 1e-12 absorbs one ulp of rounding when the bound is met with equality
    for x in (tau - 1e-9, tau + 1e-9):
        assert abs(huber_loss(x, tau) - tau**2 / 2) <= 1e-8 + 1e-12
        assert abs(huber_score(x, tau) - tau) <= 1e-8 + 1e-12


def test_domination_by_half_square():
    xs = np.linspace(-30, 30, 2001)
    for tau in (0.3, 1.0, 5.0):
        losses = huber_loss(xs, tau)
        assert np.all(losses <= xs**2 / 2 + 1e-12)
        inside = np.abs(xs) <= tau
        assert np.allclose(losses[inside], xs[inside] ** 2 / 2)
        outside = np.abs(xs) > tau + 1e-6  # strictness is a float toss-up at the kink
        assert np.all(losses[outside] < xs[outside] ** 2 / 2)


@given(a=finite, b=finite, tau=small_tau)
def test_midpoint_convexity(a, b, tau):
    lhs = huber_loss((a + b) / 2, tau)
    rhs = (huber_loss(a, tau) + huber_loss(b, tau)) / 2
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


@given(x=finite, tau=small_tau, c=st.floats(min_value=1e-3, max_value=1e3))
def test_loss_scaling(x, tau, c):
    assert huber_loss(c * x, c * tau) == pytest.approx(
        c**2 * huber_loss(x, tau), rel=1e-12, abs=1e-300
    )


# --------------------------------------------------------------- huber_score

def test_score_clips_to_tau():
    assert huber_score(-5.0, 2.0) == -2.0
    assert huber_score(0.3, 1.0) == 0.3


def test_score_matches_finite_difference():
    h = 1e-5
    fd = (huber_loss(0.7 + h, 1.0) - huber_loss(0.7 - h, 1.0)) / (2 * h)
    assert huber_score(0.7, 1.0) == pytest.approx(fd, abs=1e-6)


@given(x=finite, tau=small_tau)
def test_score_odd_and_bounded(x, tau):
    assert huber_score(-x, tau) == -huber_score(x, tau)
    assert abs(huber_score(x, tau)) <= tau + 1e-15


def test_score_monotone_on_grid():
    xs = np.linspace(-20, 20, 1001)
    for tau in (0.5, 2.0):
        vals = huber_score(xs, tau)
        assert np.all(np.diff(vals) >= -1e-15)


# --------------------------------------------------------------- irls_weight

def test_weight_conventions():
    assert irls_weight(0.0, 1.0) == 1.0
    assert irls_weight(0.5, 1.0) == 1.0
    # ratio tau/|r|, cross-checked against psi(r)/r
    assert irls_weight(4.0, 2.0) == pytest.approx(huber_score(4.0, 2.0) / 4.0)
    assert irls_weight(4.0, 2.0) == 0.5


def test_weight_kernel_equals_the_two_branch_form_bitwise():
    rng = np.random.default_rng(4)
    for tau in (1e-3, 0.7, 1.0, 2.5, 1e4):
        r = np.concatenate([[0.0, -0.0, tau, -tau, 1e300, -1e300,
                             np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)],
                            tau * rng.standard_cauchy(1000)])
        a = np.abs(r)
        branches = np.where(a <= tau, 1.0, tau / np.where(a > tau, a, 1.0))
        assert _weight(r, tau).tobytes() == branches.tobytes()
        assert irls_weight(r, tau).tobytes() == branches.tobytes()


@given(r=finite, tau=small_tau)
def test_weight_in_unit_interval(r, tau):
    w = irls_weight(r, tau)
    assert 0.0 < w <= 1.0


# ----------------------------------------------------- objective and gradient

def test_objective_exact_fit_is_zero(rng):
    x = rng.standard_normal((10, 3))
    beta = np.array([1.0, -2.0, 0.5])
    data = Dataset(x, x @ beta)
    assert objective(beta, data, HuberParams(tau=0.7)) == 0.0


def test_objective_single_point_linear_branch():
    data = Dataset(np.array([[1.0]]), np.array([3.0]))
    assert objective(np.zeros(1), data, HuberParams(tau=1.0)) == pytest.approx(2.5)


def test_objective_huge_tau_matches_half_mse(rng):
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal(20) * 3
    data = Dataset(x, y)
    beta = rng.standard_normal(3)
    mse_half = 0.5 * np.mean((y - x @ beta) ** 2)
    got = objective(beta, data, HuberParams(tau=1e12))
    assert got == pytest.approx(mse_half, rel=1e-9)


def test_objective_adds_l1_penalty_excluding_intercept(rng):
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal(8)
    data = Dataset(x, y, intercept=True)
    beta = np.array([1.0, -2.0, 5.0])
    base = empirical_loss(beta, data, 1.0)
    got = objective(beta, data, HuberParams(tau=1.0, lam=0.3))
    assert got == pytest.approx(base + 0.3 * 3.0)


def test_objective_dimension_mismatch(rng):
    data = Dataset(rng.standard_normal((5, 2)), rng.standard_normal(5))
    with pytest.raises(ValueError):
        objective(np.zeros(3), data, HuberParams(tau=1.0))


def test_gradient_zero_at_exact_fit(rng):
    x = rng.standard_normal((12, 4))
    beta = rng.standard_normal(4)
    data = Dataset(x, x @ beta)
    assert np.allclose(gradient(beta, data, 1.0), 0.0)


def test_gradient_hand_case():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    for tau in (1.0, 2.0, 10.0):
        assert gradient(np.zeros(1), data, tau) == pytest.approx([-1.0])


def test_gradient_matches_finite_differences(rng):
    tau = 1.3
    for _ in range(5):
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal(15) * 2
        beta = rng.standard_normal(4) * 0.5
        resid = y - x @ beta
        if np.any(np.abs(np.abs(resid) - tau) < 1e-4):
            continue  # keep clear of the kink
        data = Dataset(x, y)
        params = HuberParams(tau=tau)
        grad = gradient(beta, data, tau)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (objective(beta + e, data, params)
                  - objective(beta - e, data, params)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-5)


# ------------------------------------------------------------ soft_threshold

def test_soft_threshold_values():
    assert np.allclose(soft_threshold(np.array([3.0]), 1.0), [2.0])
    out = soft_threshold(np.array([-0.5, 0.0]), 1.0)
    assert np.array_equal(out, [0.0, 0.0])
    v = np.array([2.0, -3.0, 0.1])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_rejects_negative_kappa():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)


@given(
    st.lists(finite, min_size=1, max_size=8),
    st.lists(finite, min_size=1, max_size=8),
    st.floats(min_value=0, max_value=100),
)
def test_soft_threshold_nonexpansive(u, v, kappa):
    m = min(len(u), len(v))
    a, b = np.asarray(u[:m]), np.asarray(v[:m])
    lhs = np.linalg.norm(soft_threshold(a, kappa) - soft_threshold(b, kappa))
    assert lhs <= np.linalg.norm(a - b) + 1e-9


# ------------------------------------------------------------ truncate_matrix

def test_truncate_identity_regime(rng):
    x = rng.uniform(-1, 1, (6, 3))
    assert np.array_equal(truncate_matrix(x, 2.0), x)


def test_truncate_clamps():
    x = np.array([[5.0, -5.0, 0.25]])
    assert np.allclose(truncate_matrix(x, 2.0), [[2.0, -2.0, 0.25]])


def test_truncate_idempotent(rng):
    x = rng.standard_normal((10, 4)) * 3
    once = truncate_matrix(x, 1.5)
    assert np.array_equal(truncate_matrix(once, 1.5), once)


# ------------------------------------------------------------------- dataset

def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((3, 2)), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 1)), np.array([]))


def test_dataset_intercept_design(rng):
    x = rng.standard_normal((4, 2))
    data = Dataset(x, np.zeros(4), intercept=True)
    assert data.p == 3
    assert np.array_equal(data.design[:, -1], np.ones(4))
    assert data.penalty_mask.tolist() == [True, True, False]


def test_dataset_column_names_survive_subset(rng):
    data = Dataset(rng.standard_normal((5, 2)), np.zeros(5), intercept=True,
                   column_names=["a", "b"])
    part = data.subset([0, 2, 4])
    assert part.column_names == ["a", "b"] and part.intercept
    with pytest.raises(ValueError, match="1 column names for 2 columns"):
        Dataset(rng.standard_normal((5, 2)), np.zeros(5), column_names=["a"])


def test_huber_params_validation():
    with pytest.raises(ValueError):
        HuberParams(tau=0.0)
    with pytest.raises(ValueError):
        HuberParams(tau=1.0, lam=-0.5)
    with pytest.raises(ValueError):
        HuberParams(tau=1.0, varpi=0.0)


def test_predict_with_intercept():
    beta = np.array([2.0, 1.0])
    x = np.array([[1.0], [2.0]])
    assert np.allclose(predict(beta, x, intercept=True), [3.0, 5.0])
    with pytest.raises(ValueError):
        predict(beta, np.ones((2, 2)), intercept=True)
