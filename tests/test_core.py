import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adahuber.core import (
    Dataset,
    HuberParams,
    empirical_loss,
    gradient,
    objective,
    predict,
    truncate_matrix,
    _loss_score,
    _norm,
    _score,
    _soft_threshold,
    _weight,
)
from adahuber.irls import fit_huber

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_tau = st.floats(min_value=1e-3, max_value=1e3)


def kernel_loss(x, tau):
    """Huber loss of each residual in x through the shared kernel, as the
    mean loss of a one-row sample; a float for a scalar x."""
    rows = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_loss_score(rows[i:i + 1], tau)[0] for i in range(rows.size)])
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------- huber loss

def test_loss_zero_residual():
    assert kernel_loss(0.0, 1.0) == 0.0


def test_loss_quadratic_branch():
    assert kernel_loss(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)


def test_loss_linear_branch():
    assert kernel_loss(3.0, 1.0) == pytest.approx(2.5, abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_rejects_nonfinite(bad):
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        empirical_loss(np.array([bad]), data, 1.0)


@pytest.mark.parametrize("bad_tau", [0.0, -1.0, np.nan])
def test_loss_rejects_bad_tau(bad_tau):
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))
    with pytest.raises(ValueError):
        HuberParams(tau=bad_tau)
    with pytest.raises(ValueError):
        fit_huber(data, bad_tau)


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_boundary_smoothness(tau):
    # 1e-12 absorbs one ulp of rounding when the bound is met with equality
    for x in (tau - 1e-9, tau + 1e-9):
        assert abs(kernel_loss(x, tau) - tau**2 / 2) <= 1e-8 + 1e-12
        assert abs(_score(x, tau) - tau) <= 1e-8 + 1e-12


def test_domination_by_half_square():
    xs = np.linspace(-30, 30, 2001)
    for tau in (0.3, 1.0, 5.0):
        losses = kernel_loss(xs, tau)
        assert np.all(losses <= xs**2 / 2 + 1e-12)
        inside = np.abs(xs) <= tau
        assert np.allclose(losses[inside], xs[inside] ** 2 / 2)
        outside = np.abs(xs) > tau + 1e-6  # strictness is a float toss-up at the kink
        assert np.all(losses[outside] < xs[outside] ** 2 / 2)


@given(a=finite, b=finite, tau=small_tau)
def test_midpoint_convexity(a, b, tau):
    lhs = kernel_loss((a + b) / 2, tau)
    rhs = (kernel_loss(a, tau) + kernel_loss(b, tau)) / 2
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


@given(x=finite, tau=small_tau, c=st.floats(min_value=1e-3, max_value=1e3))
def test_loss_scaling(x, tau, c):
    assert kernel_loss(c * x, c * tau) == pytest.approx(
        c**2 * kernel_loss(x, tau), rel=1e-12, abs=1e-300
    )


# The kernel's loss is two dot products, each within n * eps of its exact
# value relative to its sum of nonnegative terms, and psi'r >= psi'psi keeps
# at least half of psi'r in the difference; the fsum reference of the
# per-row losses is itself within 2 eps.  So 4 (n + 2) eps bounds the gap.
def loss_kernel_bound(n):
    return 4 * (n + 2) * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       log_tau=st.floats(-8, 8),
       regime=st.sampled_from(["none", "all", "boundary", "mixed"]))
def test_loss_kernel_matches_an_exact_sum(seed, n, log_tau, regime):
    # no row clipped, every row clipped, every |r| = tau exactly, or a mix of
    # all three, at tau (so at residual scales) from 1e-8 to 1e8
    rng = np.random.default_rng(seed)
    tau = 10.0 ** log_tau
    signs = rng.choice([-1.0, 1.0], n)
    r = {"none": tau * rng.uniform(-1.0, 1.0, n),
         "all": signs * tau * (1.0 + rng.exponential(3.0, n) + 1e-9),
         "boundary": signs * tau,
         "mixed": tau * rng.standard_t(1.5, n)}[regime]
    if regime == "mixed":
        r[: n // 4] = signs[: n // 4] * tau
    loss, psi = _loss_score(r, tau)
    assert psi.tobytes() == _score(r, tau).tobytes()
    clipped = np.abs(r) > tau
    assert {"none": not clipped.any(), "all": clipped.all(),
            "boundary": not clipped.any(), "mixed": True}[regime]
    exact = math.fsum(float(p * (x - p / 2)) for p, x in zip(psi, r)) / n
    assert abs(loss - exact) <= loss_kernel_bound(n) * exact


# --------------------------------------------------------------- huber score

def test_score_clips_to_tau():
    assert _score(-5.0, 2.0) == -2.0
    assert _score(0.3, 1.0) == 0.3


def test_score_matches_finite_difference():
    h = 1e-5
    fd = (kernel_loss(0.7 + h, 1.0) - kernel_loss(0.7 - h, 1.0)) / (2 * h)
    assert _score(0.7, 1.0) == pytest.approx(fd, abs=1e-6)


@given(x=finite, tau=small_tau)
def test_score_odd_and_bounded(x, tau):
    assert _score(-x, tau) == -_score(x, tau)
    assert abs(_score(x, tau)) <= tau + 1e-15


def test_score_monotone_on_grid():
    xs = np.linspace(-20, 20, 1001)
    for tau in (0.5, 2.0):
        vals = _score(xs, tau)
        assert np.all(np.diff(vals) >= -1e-15)


# --------------------------------------------------------------- irls weight

def test_weight_conventions():
    assert _weight(0.0, 1.0) == 1.0
    assert _weight(0.5, 1.0) == 1.0
    # ratio tau/|r|, cross-checked against psi(r)/r
    assert _weight(4.0, 2.0) == pytest.approx(_score(4.0, 2.0) / 4.0)
    assert _weight(4.0, 2.0) == 0.5


def test_weight_kernel_equals_the_two_branch_form_bitwise():
    rng = np.random.default_rng(4)
    for tau in (1e-3, 0.7, 1.0, 2.5, 1e4):
        r = np.concatenate([[0.0, -0.0, tau, -tau, 1e300, -1e300,
                             np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)],
                            tau * rng.standard_cauchy(1000)])
        a = np.abs(r)
        branches = np.where(a <= tau, 1.0, tau / np.where(a > tau, a, 1.0))
        assert _weight(r, tau).tobytes() == branches.tobytes()


@given(r=finite, tau=small_tau)
def test_weight_in_unit_interval(r, tau):
    w = _weight(r, tau)
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


# ------------------------------------------------------------ soft threshold

def test_soft_threshold_values():
    assert np.allclose(_soft_threshold(np.array([3.0]), -1.0, 1.0), [2.0])
    out = _soft_threshold(np.array([-0.5, 0.0]), -1.0, 1.0)
    assert np.array_equal(out, [0.0, 0.0])
    v = np.array([2.0, -3.0, 0.1])
    assert np.array_equal(_soft_threshold(v, -0.0, 0.0), v)
    # per-coordinate thresholds: 0 leaves a coordinate (the intercept) as is
    kappa = np.array([1.0, 0.0, 0.5])
    assert np.array_equal(_soft_threshold(v, -kappa, kappa), [1.0, -3.0, 0.0])


@given(
    st.lists(finite, min_size=1, max_size=8),
    st.lists(finite, min_size=1, max_size=8),
    st.floats(min_value=0, max_value=100),
)
def test_soft_threshold_nonexpansive(u, v, kappa):
    m = min(len(u), len(v))
    a, b = np.asarray(u[:m]), np.asarray(v[:m])
    lhs = np.linalg.norm(_soft_threshold(a, -kappa, kappa)
                         - _soft_threshold(b, -kappa, kappa))
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


def test_norm_is_bitwise_np_linalg_norm(rng):
    vectors = [rng.standard_normal(m) * 10.0 ** rng.uniform(-100, 100)
               for m in (2, 3, 6, 17, 100, 1001)]
    vectors += [np.zeros(5), np.zeros(1), np.array([-3.5]), np.array([1e-300])]
    for v in vectors:
        assert _norm(v) == np.linalg.norm(v)
        assert isinstance(_norm(v), float)
