import math

import numpy as np
import pytest

from adahuber import irls, tuning
from adahuber.core import Dataset, DegenerateSampleError, RankDeficientError
from adahuber.irls import fit_huber
from adahuber.lamm import fit_l1_huber
from adahuber.simlab import (
    TABLE1_GRID,
    TABLE1_NOISES,
    ExperimentSpec,
    default_beta_star,
    gen_linear_data,
)
from adahuber.core import HuberParams
from adahuber.tuning import (
    LepskiGrid,
    TuningGrid,
    choose_lepski_index,
    cross_validate,
    default_params,
    effective_sample_size,
    estimate_sigma_crude,
    lepski_select,
    moment_estimate,
    plug_in,
)


# ------------------------------------------------------------- scale estimate

def test_sigma_crude_degenerate():
    with pytest.raises(DegenerateSampleError):
        estimate_sigma_crude([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateSampleError):
        estimate_sigma_crude([2.0])


def test_sigma_crude_hand_values():
    assert estimate_sigma_crude([-1.0, 1.0]) == pytest.approx(1.0)
    assert estimate_sigma_crude([0.0, 0.0, 3.0, 3.0]) == pytest.approx(1.5)


# -------------------------------------------------------------- plug-in rules

def test_default_params_tau_arithmetic():
    assert default_params(1.0, 100, 4.0, c_tau=1.0).tau == pytest.approx(5.0)
    assert default_params(2.0, 400, 4.0, c_tau=0.5).tau == pytest.approx(10.0)


def test_default_params_lambda_shrinks_with_n():
    # penalty follows the (t / n_eff)^(1/2) orientation
    assert default_params(1.0, 100, 4.0, c_lambda=1.0).lam == pytest.approx(0.2)
    big = default_params(1.0, 100, 4.0).lam
    small = default_params(1.0, 10_000, 4.0).lam
    assert small < big


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.5])
def test_default_params_homogeneous_in_sigma(scale):
    base = default_params(1.0, 64.0, 2.0, c_tau=1.3, c_lambda=0.7)
    scaled = default_params(scale, 64.0, 2.0, c_tau=1.3, c_lambda=0.7)
    assert scaled.tau == pytest.approx(scale * base.tau, rel=1e-12)
    assert scaled.lam == pytest.approx(scale * base.lam, rel=1e-12)


def test_effective_sample_size():
    assert effective_sample_size(100, 5, high_dim=False) == 100.0
    assert effective_sample_size(100, 5, high_dim=True) == pytest.approx(
        100 / math.log(5)
    )


# ------------------------------------------------------------ moment estimate

def test_moment_estimate_hand_values():
    assert moment_estimate([-1.0, 1.0], 1.0) == pytest.approx(1.0)
    assert moment_estimate([0.0, 0.0, 0.0, 4.0], 1.0) == pytest.approx(3.0)


def test_moment_estimate_equals_biased_variance(rng):
    v = rng.standard_normal(200) * 2.5
    assert moment_estimate(v, 1.0) == pytest.approx(np.var(v), rel=1e-12)


def test_moment_estimate_validation():
    with pytest.raises(ValueError):
        moment_estimate([1.0, 2.0], 1.5)
    with pytest.raises(DegenerateSampleError):
        moment_estimate([1.0], 0.5)


# ------------------------------------------------------------ cross-validation

def make_sparse_instance(rng, n=100, d=20, noise=0.0):
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:5] = [5.0, -2.0, 0.0, 0.0, 3.0]
    y = x @ beta + noise * rng.standard_normal(n)
    return Dataset(x, y), beta


def test_cv_singleton_grid_is_forced(rng):
    data, _ = make_sparse_instance(rng, noise=1.0)
    grid = TuningGrid((1.0,), (1.0,), folds=3)
    c_tau, c_lambda, fit, table = cross_validate(data, grid, high_dim=False, seed=1)
    assert (c_tau, c_lambda) == (1.0, 1.0)
    assert len(table) == 1
    assert fit.converged


def test_cv_noiseless_recovery(rng):
    data, beta = make_sparse_instance(rng, noise=0.0)
    grid = TuningGrid((0.5, 1.0, 1.5), (0.5, 1.0, 1.5), folds=3)
    _, _, fit, table = cross_validate(data, grid, high_dim=False, seed=7)
    support = np.flatnonzero(np.abs(fit.beta) > 1e-6)
    assert set(support) == {0, 1, 4}
    assert np.linalg.norm(fit.beta - beta) <= 1e-2
    # independent check: a direct l1 run at a small penalty finds the same support
    direct = fit_l1_huber(data, HuberParams(tau=50.0, lam=1e-4))
    assert set(np.flatnonzero(np.abs(direct.beta) > 1e-3)) == {0, 1, 4}


def test_cv_table_shape(rng):
    data, _ = make_sparse_instance(rng, noise=1.0)
    grid = TuningGrid((0.5, 1.0, 1.5), (0.5, 1.0, 1.5), folds=3)
    out = cross_validate(data, grid, high_dim=False, seed=3)
    assert len(out[3]) == 9


def test_cv_deterministic_and_order_invariant(rng):
    data, _ = make_sparse_instance(rng, n=60, d=8, noise=2.0)
    g1 = TuningGrid((0.5, 1.0, 1.5), (1.0,), folds=3)
    g2 = TuningGrid((1.5, 0.5, 1.0), (1.0,), folds=3)
    r1 = cross_validate(data, g1, high_dim=False, seed=11)
    r1b = cross_validate(data, g1, high_dim=False, seed=11)
    r2 = cross_validate(data, g2, high_dim=False, seed=11)
    assert r1[0] == r1b[0] == r2[0]
    assert np.array_equal(r1[2].beta, r2[2].beta)


def test_cv_high_dim_branch(rng):
    data, beta = make_sparse_instance(rng, n=80, d=120, noise=1.0)
    grid = TuningGrid((1.0,), (0.5, 1.0), folds=3)
    c_tau, c_lambda, fit, table = cross_validate(data, grid, high_dim=True, seed=5)
    assert len(table) == 2
    assert np.linalg.norm(fit.beta - beta) < np.linalg.norm(beta)


def test_cv_folds_exceeding_n(rng):
    x = rng.standard_normal((10, 2))
    data = Dataset(x, x @ np.array([1.0, -1.0]) + rng.standard_normal(10))
    grid = TuningGrid((1.0,), (1.0,), folds=11)
    with pytest.raises(ValueError):
        cross_validate(data, grid)


def test_cv_low_dim_fits_each_fold_start_once(rng, ols_solves):
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    grid = TuningGrid((0.5, 1.0, 1.5), (0.5, 1.0), folds=4)
    cross_validate(data, grid, seed=2)
    # one OLS solve per fold, shared by every c_tau, plus the full-data refit
    assert len(ols_solves) == grid.folds + 1
    assert len({id(sub) for sub in ols_solves}) == len(ols_solves)


def test_unpenalized_tuning_fits_go_through_fit_huber(rng, monkeypatch):
    real, taus = tuning.fit_huber, []

    def counted(data, tau, cfg=None):
        taus.append(tau)
        return real(data, tau, cfg)

    monkeypatch.setattr(tuning, "fit_huber", counted)
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    grid = TuningGrid((0.5, 1.0, 1.5), (0.5, 1.0), folds=4)
    cross_validate(data, grid, seed=2)
    assert len(taus) == grid.folds * len(grid.c_tau_candidates) + 1
    taus.clear()
    _, _, diag = lepski_select(data)
    assert taus == list(diag["taus"])


def test_cv_low_dim_takes_one_spectrum_per_dataset(eigvalsh_calls):
    spec = ExperimentSpec(100, 5, default_beta_star(5), TABLE1_NOISES[0], seed=4)
    raw, _ = gen_linear_data(spec, rep=(0, 0))
    data = Dataset(raw.x, raw.y, intercept=True)
    cross_validate(data, TABLE1_GRID, high_dim=False, seed=4)
    # one per fold Dataset, shared by its start and every c_tau; one for the
    # full data; no sweep falls back to solve_spd's own check
    assert len(eigvalsh_calls) == TABLE1_GRID.folds + 1


def test_cv_cell_with_an_infinite_tau_fails(rng):
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    _, _, _, table = cross_validate(data, TuningGrid((1e308, 1.0), (1.0,)))
    assert [row["failed"] for row in table] == [True, False]


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("high_dim", [False, True])
def test_plug_in_equals_the_four_call_composition(rng, high_dim, intercept):
    x = rng.standard_normal((70, 9))
    data = Dataset(x, x[:, 0] + rng.standard_t(2.0, 70), intercept=intercept)
    rule = plug_in(data, high_dim)
    for c in [(), (0.25,), (1.5, 0.5), (3.0, 2.0)]:
        old = default_params(estimate_sigma_crude(data.y),
                             effective_sample_size(data.n, data.d, high_dim),
                             math.log(data.n), *c)
        new = rule(*c)
        assert (new.tau.hex(), new.lam.hex()) == (old.tau.hex(), old.lam.hex())


def test_cv_constant_response_is_degenerate(rng):
    x = rng.standard_normal((40, 3))
    for high_dim in (False, True):
        with pytest.raises(DegenerateSampleError):
            cross_validate(Dataset(x, np.full(40, 2.5)), high_dim=high_dim)


def test_tuning_grid_validation():
    with pytest.raises(ValueError):
        TuningGrid((), (1.0,))
    with pytest.raises(ValueError):
        TuningGrid((1.0,), (1.0,), folds=1)


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_tuning_grid_rejects_bad_constants(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        TuningGrid((bad, 1.0), (1.0,))
    with pytest.raises(ValueError, match="positive and finite"):
        TuningGrid((1.0,), (1.0, bad))


# --------------------------------------------------------------------- lepski

def test_lepski_grid_contents():
    grid = LepskiGrid(1.0, 5.0, a=1.5)
    sigmas = np.asarray(grid.grid)
    assert sigmas[0] == 1.0
    assert np.all(sigmas < 1.5 * 5.0)
    assert len(sigmas) <= 1 + math.log(5.0, 1.5) + 1


def test_lepski_grid_validation():
    with pytest.raises(ValueError):
        LepskiGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        LepskiGrid(1.0, 2.0, a=1.0)


def test_lepski_singleton_grid(rng):
    x = rng.standard_normal((100, 3))
    y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(100)
    data = Dataset(x, y)
    fit, j_hat, diag = lepski_select(data, K=1.0)
    assert len(diag["sigmas"]) == 1 and j_hat == 0
    assert not diag["fallback"]


def test_lepski_noiseless_selects_first(rng):
    x = rng.standard_normal((80, 4))
    beta = np.array([1.0, -1.0, 2.0, 0.5])
    data = Dataset(x, x @ beta)
    fit, j_hat, diag = lepski_select(data)
    assert j_hat == 0 and not diag["fallback"]
    assert np.allclose(fit.beta, beta, atol=1e-6)


def test_lepski_selection_replay_monotone(rng):
    m = 6
    for _ in range(20):
        dist = np.abs(rng.standard_normal((m, m)))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        sigmas = np.geomspace(0.5, 4.0, m)
        base_thresholds = 0.8 * sigmas
        j0, _ = choose_lepski_index(dist, base_thresholds)
        for c in (1.5, 3.0, 10.0):
            j_scaled, _ = choose_lepski_index(dist, c * base_thresholds)
            assert j_scaled <= j0


def test_lepski_requires_overdetermined(rng):
    data = Dataset(rng.standard_normal((4, 6)), rng.standard_normal(4))
    with pytest.raises(RankDeficientError):
        lepski_select(data)


def test_lepski_collinear_overdetermined_design(rng):
    # n > p, but the third column repeats the first: the Gram matrix is
    # singular and the shared rank check rejects it with its usual message
    x = rng.standard_normal((50, 2))
    x = np.column_stack([x, x[:, 0]])
    data = Dataset(x, x[:, 0] + rng.standard_normal(50))
    with pytest.raises(RankDeficientError, match="numerically singular"):
        lepski_select(data)


def test_lepski_select_rejects_a_bad_grid(rng):
    x = rng.standard_normal((60, 2))
    data = Dataset(x, x @ np.array([1.0, -1.0]) + rng.standard_normal(60))
    with pytest.raises(ValueError):
        lepski_select(data, K=0.5)
    with pytest.raises(ValueError):
        lepski_select(data, a=1.0)


def test_lepski_betas_are_the_grid_fits(rng):
    x = rng.standard_normal((120, 3))
    data = Dataset(x, x @ np.array([1.0, 0.0, -2.0]) + rng.standard_t(2.0, 120),
                   intercept=True)
    _, _, diag = lepski_select(data)
    assert len(diag["betas"]) == len(diag["taus"]) > 1
    for beta, tau in zip(diag["betas"], diag["taus"]):
        assert beta.tobytes() == fit_huber(data, tau).beta.tobytes()


def test_lepski_fits_ols_once(rng, monkeypatch):
    real, calls = irls.fit_ols, []

    def counted(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(irls, "fit_ols", counted)
    monkeypatch.setattr(tuning, "fit_ols", counted)
    x = rng.standard_normal((150, 3))
    _, _, diag = lepski_select(Dataset(x, x[:, 0] + rng.standard_t(2.0, 150)))
    assert len(diag["taus"]) > 1
    assert len(calls) == 1


def test_lepski_defaults_from_data(rng):
    x = rng.standard_normal((200, 4))
    y = x @ np.array([2.0, -1.0, 0.5, 1.0]) + rng.standard_normal(200)
    fit, j_hat, diag = lepski_select(Dataset(x, y))
    sigmas = diag["sigmas"]
    # default grid spans sigma_hat / 3 up to (but below) 1.5 * 3 * sigma_hat
    span = sigmas[-1] / sigmas[0]
    assert 6.0 <= span < 13.5
    assert len(sigmas) >= 5
    assert fit.converged
    assert diag["t"] == pytest.approx(math.log(200))
