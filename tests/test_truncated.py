import math

import numpy as np
import pytest

from adahuber.core import Dataset, HuberParams, gradient, truncate_matrix
from adahuber.lamm import fit_l1_huber
from adahuber.simlab import ExperimentSpec, NoiseSpec, default_beta_star, gen_linear_data
from adahuber.truncated import (
    default_truncation_params,
    fit_truncated,
    predict_truncated,
)


def test_truncation_is_identity_for_large_varpi(rng):
    x = rng.standard_normal((50, 6))
    y = x @ np.append(np.array([3.0, -1.0]), np.zeros(4)) + rng.standard_normal(50)
    data = Dataset(x, y)
    varpi = float(np.max(np.abs(x))) + 1.0
    params = HuberParams(tau=2.0, lam=0.1, varpi=varpi)
    a = fit_truncated(data, params)
    b = fit_l1_huber(data, params)
    assert np.array_equal(a.beta, b.beta)
    assert a.trajectory == b.trajectory


def test_composition_law_bitwise(rng):
    x = rng.standard_normal((40, 5)) * 4
    y = rng.standard_normal(40)
    data = Dataset(x, y)
    params = HuberParams(tau=1.5, lam=0.2, varpi=1.0)
    direct = fit_truncated(data, params)
    manual = fit_l1_huber(Dataset(truncate_matrix(x, 1.0), y), params)
    assert np.array_equal(direct.beta, manual.beta)


def test_requires_varpi(rng):
    data = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
    with pytest.raises(ValueError):
        fit_truncated(data, HuberParams(tau=1.0, lam=0.1))


def test_truncated_design_is_bounded(rng):
    x = rng.standard_normal((30, 4)) * 10
    clamped = truncate_matrix(x, 2.5)
    assert np.max(np.abs(clamped)) <= 2.5


def test_contaminated_covariate_instance():
    beta = default_beta_star(20)
    spec = ExperimentSpec(100, 20, beta, NoiseSpec.normal(1.0), seed=99)
    raw, _ = gen_linear_data(spec, 0)
    x = raw.x.copy()
    x[0, 0] = 1e6
    data = Dataset(x, raw.y)
    base = default_truncation_params(100, 20, s_guess=3)
    params = HuberParams(tau=base.tau, lam=base.lam, varpi=5.0)
    err_trunc = np.linalg.norm(fit_truncated(data, params).beta - beta)
    err_plain = np.linalg.norm(fit_l1_huber(data, params).beta - beta)
    assert err_trunc < err_plain


def test_zero_solution_under_dominating_lambda(rng):
    x = rng.standard_normal((30, 4)) * 3
    y = rng.standard_normal(30)
    data = Dataset(x, y)
    varpi = 1.0
    grad0 = gradient(np.zeros(4), Dataset(truncate_matrix(x, varpi), y), 1.0)
    lam = float(np.max(np.abs(grad0))) * 1.01
    fit = fit_truncated(data, HuberParams(tau=1.0, lam=lam, varpi=varpi))
    assert np.array_equal(fit.beta, np.zeros(4))


def test_default_truncation_params_formulas():
    for n, d, s in ((100, 20, 3), (873, 55, 4), (50, 8, 1)):
        got = default_truncation_params(n, d, s_guess=s)
        ratio = n / math.log(d)
        assert got.tau == pytest.approx(math.sqrt(s) * ratio**0.25, rel=1e-12)
        assert got.varpi == pytest.approx(ratio**0.25, rel=1e-12)
        assert got.lam == pytest.approx(math.sqrt(s * math.log(d) / n), rel=1e-12)
    # exact arithmetic of the stated scalings at n / log d = 16
    assert math.sqrt(4) * 16**0.25 == 4.0
    assert 16**0.25 == 2.0
    assert math.sqrt(1 / 16) == 0.25


def test_default_truncation_params_validation():
    with pytest.raises(ValueError):
        default_truncation_params(100, 1)
    with pytest.raises(ValueError):
        default_truncation_params(1, 10)
    with pytest.raises(ValueError):
        default_truncation_params(100, 10, s_guess=0)
    # s_guess defaults to ceil(sqrt(d))
    got = default_truncation_params(100, 9)
    assert got.tau == pytest.approx(math.sqrt(3) * (100 / math.log(9)) ** 0.25)


def test_predictions_clamp_new_covariates(rng):
    beta = np.array([1.0, -1.0])
    x_new = np.array([[10.0, 0.5]])
    got = predict_truncated(beta, x_new, varpi=2.0)
    assert got == pytest.approx([2.0 - 0.5])


def test_untruncated_limit_monotone(rng):
    x = rng.standard_normal((60, 5)) * 3
    y = x @ np.array([2.0, 0.0, -1.0, 0.0, 0.5]) + rng.standard_normal(60)
    data = Dataset(x, y)
    plain = fit_l1_huber(data, HuberParams(tau=2.0, lam=0.1)).beta
    diffs = []
    for varpi in (1.0, 2.0, 4.0, 8.0, 100.0):
        params = HuberParams(tau=2.0, lam=0.1, varpi=varpi)
        diffs.append(np.linalg.norm(fit_truncated(data, params).beta - plain))
    assert diffs[-1] == 0.0  # identity once varpi exceeds max |x|
    assert diffs[0] > diffs[-2]
