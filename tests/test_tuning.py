import math
from functools import cached_property
from itertools import product

import numpy as np
import pytest

from adahuber import tuning
from adahuber.core import (
    Dataset,
    DegenerateSampleError,
    NumericalFailureError,
    RankDeficientError,
)
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
    TuningError,
    TuningGrid,
    adaptive_tau,
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


# ------------------------------------------------------------------- one rate

# Frozen copies of the three rate formulas as they were written before they
# shared ``tuning._rate``: the plug-in rule, Lepski's tau_j and the lab's
# moment-aware rule.
def frozen_default_params(sigma_hat, n_eff, t, c_tau, c_lambda):
    root = math.sqrt(n_eff / t)
    return c_tau * sigma_hat * root, c_lambda * sigma_hat / root


def frozen_lepski_taus(sigmas, n, t):
    return sigmas * math.sqrt(n / t)


def frozen_adaptive_tau(residuals, delta, n_eff, t, c_tau):
    delta_eff = min(delta, 1.0)
    v_hat = moment_estimate(residuals, delta_eff)
    exponent = 1.0 / (1.0 + delta_eff)
    return c_tau * v_hat * (n_eff / t) ** exponent


def test_one_rate_keeps_the_bits_of_the_three_formulas(rng):
    """Over a seeded grid of n in 2..100,000, the plug-in rule and Lepski's
    tau_j are bit-identical to their frozen formulas, and so is the lab's
    rule wherever delta < 1; at delta = 1 it is the sqrt form, which differs
    from ``** 0.5`` in the last bit at some n on the grid (n = 1,338)."""
    ns = np.unique(np.concatenate([
        [2, 614, 1338, 100_000],
        np.random.default_rng(33).integers(2, 100_001, 400)]))
    resid = rng.standard_t(2.5, 50)
    variance = moment_estimate(resid, 1.0)
    sigmas = 0.7 * 1.5 ** np.arange(7)
    pow_differs = 0
    for n in ns.tolist():
        t = math.log(n)
        assert np.array_equal(sigmas * tuning._rate(n, t, 1.0),
                              frozen_lepski_taus(sigmas, n, t))
        for d, high_dim, c in product((3, 5, 20, 500), (False, True),
                                      (0.05, 1.0)):
            n_eff = effective_sample_size(n, d, high_dim)
            got = default_params(1.3, n_eff, t, c, c)
            assert (got.tau, got.lam) == frozen_default_params(1.3, n_eff, t, c, c)
            for delta in (0.45, 0.95):
                assert (adaptive_tau(resid, delta, n_eff, t, c)
                        == frozen_adaptive_tau(resid, delta, n_eff, t, c))
            assert (adaptive_tau(resid, 1.0, n_eff, t, c)
                    == c * variance * math.sqrt(n_eff / t))
            pow_differs += (n_eff / t) ** 0.5 != math.sqrt(n_eff / t)
    assert pow_differs


@pytest.mark.parametrize("n, d", [(614, 3), (1338, 5)])
def test_lepski_taus_keep_their_bits(n, d):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, d))
    _, _, diag = lepski_select(Dataset(x, x[:, 0] + rng.standard_t(2.0, n)))
    want = frozen_lepski_taus(np.asarray(diag["sigmas"]), n, math.log(n))
    assert np.array_equal(diag["taus"], want)


# ------------------------------------------------------------ cross-validation

def make_sparse_instance(rng, n=100, d=20, noise=0.0):
    x = rng.standard_normal((n, d))
    beta = np.zeros(d)
    beta[:5] = [5.0, -2.0, 0.0, 0.0, 3.0]
    y = x @ beta + noise * rng.standard_normal(n)
    return Dataset(x, y), beta


def test_cv_singleton_grid_is_forced(rng):
    data, _ = make_sparse_instance(rng, noise=1.0)
    grid = TuningGrid((1.0,), folds=3)
    c_tau, c_lambda, fit, table = cross_validate(data, grid, high_dim=False, seed=1)
    assert (c_tau, c_lambda) == (1.0, None)
    assert len(table) == 1
    assert fit.converged


def test_cv_noiseless_recovery(rng):
    data, beta = make_sparse_instance(rng, noise=0.0)
    grid = TuningGrid((0.5, 1.0, 1.5), folds=3)
    _, _, fit, table = cross_validate(data, grid, high_dim=False, seed=7)
    support = np.flatnonzero(np.abs(fit.beta) > 1e-6)
    assert set(support) == {0, 1, 4}
    assert np.linalg.norm(fit.beta - beta) <= 1e-2
    # independent check: a direct l1 run at a small penalty finds the same support
    direct = fit_l1_huber(data, HuberParams(tau=50.0, lam=1e-4))
    assert set(np.flatnonzero(np.abs(direct.beta) > 1e-3)) == {0, 1, 4}


def test_cv_table_shape(rng):
    data, _ = make_sparse_instance(rng, noise=1.0)
    grid = TuningGrid((0.5, 1.0, 1.5), folds=3)
    c_tau, c_lambda, _, table = cross_validate(data, grid, high_dim=False, seed=3)
    # one row per constant: the unpenalized fit never reads c_lambda
    assert [row["c_tau"] for row in table] == list(grid.constants)
    assert c_lambda is None
    assert all(row["c_lambda"] is None for row in table)
    assert c_tau in grid.constants
    # the table marks the returned constant, and only it
    assert [(row["c_tau"], row["c_lambda"]) for row in table
            if row["selected"]] == [(c_tau, c_lambda)]


def test_cv_deterministic_and_order_invariant(rng):
    data, _ = make_sparse_instance(rng, n=60, d=8, noise=2.0)
    g1 = TuningGrid((0.5, 1.0, 1.5), folds=3)
    g2 = TuningGrid((1.5, 0.5, 1.0), folds=3)
    r1 = cross_validate(data, g1, high_dim=False, seed=11)
    r1b = cross_validate(data, g1, high_dim=False, seed=11)
    r2 = cross_validate(data, g2, high_dim=False, seed=11)
    assert r1[0] == r1b[0] == r2[0]
    assert np.array_equal(r1[2].beta, r2[2].beta)


def test_cv_high_dim_branch(rng):
    data, beta = make_sparse_instance(rng, n=80, d=120, noise=1.0)
    grid = TuningGrid((0.5, 1.0), folds=3)
    c_tau, c_lambda, fit, table = cross_validate(data, grid, high_dim=True, seed=5)
    # the c_tau x c_lambda product, c_lambda varying fastest
    assert [(row["c_tau"], row["c_lambda"]) for row in table] == [
        (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
    assert [(row["c_tau"], row["c_lambda"]) for row in table
            if row["selected"]] == [(c_tau, c_lambda)]
    assert np.linalg.norm(fit.beta - beta) < np.linalg.norm(beta)


def test_cv_folds_exceeding_n(rng):
    x = rng.standard_normal((10, 2))
    data = Dataset(x, x @ np.array([1.0, -1.0]) + rng.standard_normal(10))
    grid = TuningGrid((1.0,), folds=11)
    with pytest.raises(ValueError):
        cross_validate(data, grid)


def test_cv_low_dim_fits_each_fold_start_once(rng, ols_solves):
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    grid = TuningGrid((0.5, 1.0, 1.5), folds=4)
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
    grid = TuningGrid((0.5, 1.0, 1.5), folds=4)
    cross_validate(data, grid, seed=2)
    assert len(taus) == grid.folds * len(grid.constants) + 1
    taus.clear()
    _, _, diag = lepski_select(data)
    assert taus == list(diag["taus"])


def test_cv_low_dim_attempts_a_failing_constant_once(rng, monkeypatch):
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    bad_tau = plug_in(data, False)(2.0).tau
    real, attempts = tuning.fit_huber, []

    def failing(sample, tau, cfg=None):
        if tau == bad_tau:
            attempts.append(tau)
            raise NumericalFailureError("injected")
        return real(sample, tau, cfg)

    monkeypatch.setattr(tuning, "fit_huber", failing)
    _, _, _, table = cross_validate(data, TuningGrid((0.5, 1.0, 2.0)), seed=2)
    assert [row["failed"] for row in table] == [False, False, True]
    assert len(attempts) == 1


def test_cv_raises_tuning_error_when_every_cell_fails(rng, monkeypatch):
    def rank_deficient(sample, tau, cfg=None):
        raise RankDeficientError("injected")

    monkeypatch.setattr(tuning, "fit_huber", rank_deficient)
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    with pytest.raises(TuningError, match="every cross-validation cell failed"):
        cross_validate(data, TuningGrid((0.5, 1.0)), seed=2)


def test_cv_low_dim_takes_one_spectrum_per_dataset(checked_solves):
    spec = ExperimentSpec(100, 5, default_beta_star(5), TABLE1_NOISES[0], seed=4)
    raw, _ = gen_linear_data(spec, rep=(0, 0))
    data = Dataset(raw.x, raw.y, intercept=True)
    cross_validate(data, TABLE1_GRID, high_dim=False, seed=4)
    # one Gram per fold Dataset, shared by its start and every c_tau; one for
    # the full data; under this normal noise no c_tau clips an OLS residual,
    # so every fit answers from its dataset's cache and solves no system
    assert checked_solves() == (TABLE1_GRID.folds + 1, 0)


def test_cv_cell_with_an_infinite_tau_fails(rng):
    data, _ = make_sparse_instance(rng, n=60, d=6, noise=1.0)
    _, _, _, table = cross_validate(data, TuningGrid((1e308, 1.0)))
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
        TuningGrid(())
    with pytest.raises(ValueError):
        TuningGrid((1.0,), folds=1)


def test_tuning_grid_rejects_repeated_constants():
    with pytest.raises(ValueError, match="constants must be distinct"):
        TuningGrid((1.0, 1.0))
    with pytest.raises(ValueError, match="constants must be distinct"):
        TuningGrid((0.5, 1.0, 0.5))


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_tuning_grid_rejects_bad_constants(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        TuningGrid((bad, 1.0))
    with pytest.raises(ValueError, match="positive and finite"):
        TuningGrid((1.0, bad))


# --------------------------------------------------------------------- lepski

def test_lepski_grid_contents(rng):
    x = rng.standard_normal((90, 2))
    data = Dataset(x, x @ np.array([1.0, -1.0]) + rng.standard_normal(90))
    resid = data.y - data.design @ data.ols_beta
    sigma_hat = math.sqrt(float(resid @ resid) / (data.n - data.p))
    K, a = math.sqrt(5.0), 1.5
    sigmas = np.asarray(lepski_select(data, K=K, a=a)[2]["sigmas"])
    assert sigmas[0] == pytest.approx(sigma_hat / K, rel=1e-12)
    assert np.array_equal(sigmas, sigmas[0] * a ** np.arange(len(sigmas)))
    assert sigmas[-1] < a * K * sigma_hat <= sigmas[-1] * a * (1 + 1e-12)
    assert len(sigmas) <= 1 + math.log(5.0, 1.5) + 1
    # the widest grid documented, K = 100, lies far inside the bound
    assert len(lepski_select(data, K=100.0)[2]["sigmas"]) == 24


def test_lepski_grid_validation(rng, monkeypatch):
    """A bad grid is rejected after the scale estimate and before any fit,
    also where an exact fit leaves a zero scale."""
    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the grid was checked")

    monkeypatch.setattr(tuning, "fit_huber", no_fit)
    x = rng.standard_normal((60, 2))
    data = Dataset(x, x @ np.array([1.0, -1.0]) + rng.standard_normal(60))
    with pytest.raises(ValueError, match="sigma_min <= sigma_max"):
        lepski_select(data, K=0.5)
    with pytest.raises(ValueError, match="sigma_min <= sigma_max"):
        lepski_select(data, K=float("inf"))
    with pytest.raises(ValueError, match="K must be positive"):
        lepski_select(data, K=0.0)
    with pytest.raises(ValueError, match="must exceed 1"):
        lepski_select(data, a=1.0)
    # an infinite ratio would leave a one-point grid
    with pytest.raises(ValueError, match="grid ratio a must be finite, got inf"):
        lepski_select(data, a=float("inf"))
    # a ratio just above 1: about 2,200 grid points, one fit each
    with pytest.raises(ValueError, match="more than 1000 points"):
        lepski_select(data, a=1.001)
    # a**2 overflows a float: named, not an OverflowError
    with pytest.raises(ValueError, match=r"^K = 3\.0 and a = 1e\+200 make"):
        lepski_select(data, a=1e200)
    with pytest.raises(ValueError, match="sigma_min <= sigma_max"):
        lepski_select(Dataset(x, np.zeros(60)))


def test_lepski_singleton_grid(rng):
    x = rng.standard_normal((100, 3))
    y = x @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(100)
    data = Dataset(x, y)
    fit, j_hat, diag = lepski_select(data, K=1.0)
    assert len(diag["sigmas"]) == 1 and j_hat == 0


def test_lepski_noiseless_selects_first(rng):
    x = rng.standard_normal((80, 4))
    beta = np.array([1.0, -1.0, 2.0, 0.5])
    data = Dataset(x, x @ beta)
    fit, j_hat, _ = lepski_select(data)
    assert j_hat == 0
    assert np.allclose(fit.beta, beta, atol=1e-6)


def test_lepski_selection_replay_monotone(rng):
    m = 6
    for _ in range(20):
        dist = np.abs(rng.standard_normal((m, m)))
        dist = (dist + dist.T) / 2
        np.fill_diagonal(dist, 0.0)
        later = [row[j + 1:].max(initial=0.0) for j, row in enumerate(dist)]
        sigmas = np.geomspace(0.5, 4.0, m)
        base_thresholds = 0.8 * sigmas
        j0 = choose_lepski_index(later, base_thresholds)
        for c in (1.5, 3.0, 10.0):
            j_scaled = choose_lepski_index(later, c * base_thresholds)
            assert j_scaled <= j0


def test_lepski_max_distance_to_later_is_the_gram_distance(rng):
    """Each point's reported distance is its largest G-norm distance to a
    later fit, computed here from the betas and the gram matrix, with no
    whitening; the last point reports 0.0, and the rule picks the first
    point within its threshold."""
    x = rng.standard_normal((200, 3))
    y = 1.0 + x @ np.array([1.0, -1.0, 0.5]) + rng.lognormal(0.0, 1.0, 200)
    data = Dataset(x, y, intercept=True)
    _, j_hat, diag = lepski_select(data, K=100.0)
    betas = diag["betas"]
    expected = [max((math.sqrt((b - beta) @ data.gram @ (b - beta))
                     for b in betas[j + 1:]), default=0.0)
                for j, beta in enumerate(betas)]
    later = diag["max_distance_to_later"]
    assert later == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert later[-1] == 0.0 and max(later) > 0.0
    assert j_hat >= 1
    assert j_hat == next(j for j, (dist, thr) in enumerate(
        zip(later, diag["thresholds"])) if dist <= thr)


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


def test_lepski_betas_are_the_grid_fits(rng):
    x = rng.standard_normal((120, 3))
    data = Dataset(x, x @ np.array([1.0, 0.0, -2.0]) + rng.standard_t(2.0, 120),
                   intercept=True)
    _, _, diag = lepski_select(data)
    assert len(diag["betas"]) == len(diag["taus"]) > 1
    for beta, tau in zip(diag["betas"], diag["taus"]):
        assert beta.tobytes() == fit_huber(data, tau).beta.tobytes()


def test_lepski_fits_ols_once(rng, monkeypatch):
    # sigma_hat and every grid fit's start read the Dataset's one OLS solve
    real, calls = Dataset.ols_beta.func, []

    def counted(data):
        calls.append(data)
        return real(data)

    solve = cached_property(counted)
    solve.__set_name__(Dataset, "ols_beta")
    monkeypatch.setattr(Dataset, "ols_beta", solve)
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
