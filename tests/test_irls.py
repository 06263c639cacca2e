import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adahuber import irls, tuning
from adahuber.core import Dataset, RankDeficientError, _loss_score, _weight
from adahuber.irls import IRLS_DEFAULTS, SolverConfig, fit_huber, fit_ols, solve_spd
from adahuber.simlab import run_table1


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
    huber, ols = fit_huber(data, 1e12), fit_ols(data)
    assert np.allclose(huber.beta, ols.beta, atol=1e-8)
    # OLS is the no-clip answer: the same coefficients, loss and gradient norm
    assert (np.array([*huber.beta, huber.objective, huber.grad_norm]).tobytes()
            == np.array([*ols.beta, ols.objective, ols.grad_norm]).tobytes())
    assert ols.objective == pytest.approx(
        0.5 * np.mean((y - x @ ols.beta) ** 2), rel=1e-15, abs=0.0)


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


def test_fit_huber_takes_one_spectrum_per_dataset(rng, checked_solves):
    x = rng.standard_normal((80, 4))
    y = x @ np.array([1.0, 0.0, -2.0, 0.5]) + rng.standard_t(2.0, 80)
    fit = fit_huber(Dataset(x, y, intercept=True), 1.0)
    assert (fit.iterations, fit.stop_reason) == (4, "converged")
    # the Gram's spectrum, then one per solved system, its rank check: three
    # Newton steps, and a fourth sweep that holds the last one's system
    assert checked_solves() == (1, 3)


# ------------------------------------------------- sweep against exact checks

def exact_check_fit_huber(data, tau, cfg=IRLS_DEFAULTS, newton=True):
    """Oracle: fit_huber's sweeps, the Newton step wherever solve_spd's
    eigenvalue rank check passes on it and the IRLS fallback, every sweep
    re-solving its system; returns the fields of fit_huber's FitResult.  A
    sweep that keeps beta (a zero step) failing the gradient test stops it
    with "no_descent", and so does one that returns the state of two sweeps
    back: beta and the key of the kept Newton system (None after an IRLS
    sweep), which the OLS start holds with no clipped row.  With
    ``newton=False`` it is the IRLS-only reference: every sweep an IRLS
    sweep."""
    design, y, n = data.design, data.y, data.n
    gram = design.T @ design / n
    try:
        beta = solve_spd(gram, design.T @ y / n)
        kept = np.zeros(n, np.int8)
    except RankDeficientError:
        beta, kept = np.zeros(data.p), None
    grad_tol = 1e-6 * (1.0 + float(np.linalg.norm(y)))

    def newton_step(clipped, psi):
        # the Newton system's solution; None where it fails the rank check
        c = 1.0 - clipped
        try:
            return solve_spd((design * c[:, None]).T @ design / n,
                             design.T @ np.where(clipped, psi, y) / n)
        except RankDeficientError:
            return None

    resid = y - design @ beta
    loss, psi = _loss_score(resid, tau)
    traj = [loss]
    states = [(beta.tobytes(), kept)]
    stop_reason = "max_iter"
    iterations = 0
    for _ in range(cfg.max_iter):
        clipped = np.abs(resid) > tau
        beta_new, kept = None, None
        trial = newton_step(clipped, psi) if newton else None
        if trial is not None:
            trial_loss = _loss_score(y - design @ trial, tau)[0]
            if trial_loss < traj[-1] or np.array_equal(trial, beta):
                beta_new = trial
                kept = (np.sign(resid) * clipped).astype(np.int8)
        if beta_new is None:
            w = _weight(resid, tau)
            beta_new = solve_spd((design * w[:, None]).T @ design / n,
                                 design.T @ (w * y) / n)
        step = float(np.linalg.norm(beta_new - beta))
        beta = beta_new
        iterations += 1
        resid = y - design @ beta
        loss, psi = _loss_score(resid, tau)
        traj.append(loss)
        states.append((beta.tobytes(), kept))
        back = states[-3] if len(states) > 2 else None
        cycled = back is not None and back[0] == states[-1][0] and (
            (kept is None) == (back[1] is None)
            and (kept is None or np.array_equal(kept, back[1])))
        if step <= cfg.tol and np.linalg.norm(design.T @ psi / n) <= grad_tol:
            stop_reason = "converged"
            break
        if step == 0.0 or cycled:
            stop_reason = "no_descent"
            break
    grad_norm = float(np.linalg.norm(design.T @ psi / n))
    return beta, iterations, stop_reason, traj[-1], grad_norm, tuple(traj)


def assert_fit_is(fit, want):
    """Every field of a fit_huber result equals the oracle's, bit for bit."""
    beta, iterations, stop_reason, obj, grad_norm, traj = want
    assert fit.beta.tobytes() == beta.tobytes()
    assert fit.iterations == iterations
    assert fit.stop_reason == stop_reason
    assert (np.array([fit.objective, fit.grad_norm, *fit.trajectory]).tobytes()
            == np.array([obj, grad_norm, *traj]).tobytes())
    assert (fit.max_inner, fit.matvecs, fit.inner_total) == (None, None, None)


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
# near-collinear columns and a huge outlier
NEAR_COLLINEAR = dict(seed=2, n=50, scales=[0.0, 0.0], collinear=-4.0,
                      outliers=1, outlier_size=10.0, intercept=False,
                      log_tau=0.0)
# zero_step_data at tau = 0.5: the third sweep keeps beta, failing the
# gradient test
ZERO_STEP = dict(seed=0, n=40, scales=[12.0, 12.0], collinear=None, outliers=0,
                 outlier_size=2.0, intercept=False, log_tau=np.log10(0.5))
# the same data at tau = 0.1: the fifth sweep keeps beta
ZERO_STEP_SMALL_TAU = dict(ZERO_STEP, log_tau=-1.0)


def test_sweep_matches_the_exact_check_oracle(monkeypatch):
    # each sweep that solves tries its Newton system first, and each IRLS
    # sweep computes its weights once, so the Newton tries are the solves
    # less the weightings
    solves, weights = [], []
    for name, calls in (("solve_spd", solves), ("_weight", weights)):
        def counted(*args, real=getattr(irls, name), calls=calls):
            calls.append(None)
            return real(*args)
        monkeypatch.setattr(irls, name, counted)
    sweeps = {"without a solve": 0, "solves": 0}

    @given(irls_cases())
    @example(WELL_POSED)
    @example(NEAR_COLLINEAR)
    @example(ZERO_STEP)
    @example(ZERO_STEP_SMALL_TAU)
    def check(case):
        data, tau = irls_case_data(case)
        try:
            want = exact_check_fit_huber(data, tau)
        except RankDeficientError as exc:
            want = str(exc)
        solves.clear()
        weights.clear()
        try:
            fit = fit_huber(data, tau)
        except RankDeficientError as exc:
            assert str(exc) == want
            sweeps["solves"] += len(solves)
            return
        assert_fit_is(fit, want)
        sweeps["solves"] += len(solves)
        sweeps["without a solve"] += (fit.iterations
                                      - (len(solves) - len(weights)))

    check()
    assert sweeps["without a solve"] > 0 and sweeps["solves"] > 0


# relative objective gap between two converged fits; measured at most 3.7e-11
# over 6,000 derandomized cases
OBJECTIVE_RTOL = 1e-9


def max_rise(traj):
    """Largest step-to-step rise of a loss trajectory, relative to the loss
    (absolute below 1)."""
    traj = np.asarray(traj)
    return float(np.max(np.diff(traj) / np.maximum(1.0, traj[:-1]), initial=0.0))


@settings(max_examples=3000, derandomize=True)
@given(irls_cases())
def test_newton_sweep_keeps_the_irls_reference_guarantees(case):
    data, tau = irls_case_data(case)
    try:
        want = exact_check_fit_huber(data, tau, newton=False)
    except RankDeficientError:
        want = None
    try:
        fit = fit_huber(data, tau)
    except RankDeficientError:
        assert want is None
        return
    # IRLS sweeps carry rounding: a loss near 1e11 has an ulp of 1.5e-5, and
    # on a Gram matrix of condition 1e10 the reference's own loss rises by
    # 1e-8 relative; the Newton steps may add no rise beyond the reference's
    slack = 1e-10 if want is None else max(1e-10, max_rise(want[5]))
    assert max_rise(fit.trajectory) <= slack
    if want is None:
        assert fit.converged
        assert fit.grad_norm <= 1e-6 * (1.0 + np.linalg.norm(data.y))
        return
    _, _, stop_reason, obj, _, _ = want
    if stop_reason == "converged":
        assert fit.converged
        assert fit.objective == pytest.approx(obj, rel=OBJECTIVE_RTOL, abs=0.0)


def test_fit_without_clipped_rows_is_the_irls_sweep_bit_for_bit():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 3)) * np.array([1.0, 10.0, 0.1])
        y = x @ np.array([1.0, -0.2, 5.0]) + rng.standard_t(2.0, 40)
        data = Dataset(x, y, intercept=seed % 2 == 1)
        tau = 2.0 * np.abs(y - data.design @ data.ols_beta).max()
        assert_fit_is(fit_huber(data, tau),
                      exact_check_fit_huber(data, tau, newton=False))


def test_rank_deficient_ols_skips_newton_and_raises(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 2))
    x = np.column_stack([x, x[:, 0] - 2.0 * x[:, 1]])
    y = x @ np.array([1.0, 2.0, 0.0]) + rng.standard_t(2.0, 30)
    y[:3] += 1e4
    data = Dataset(x, y)
    with pytest.raises(RankDeficientError):
        data.ols_beta
    # rows are clipped at the zero start, so only the rank check stops Newton
    assert np.any(np.abs(y) > 1.0)
    with pytest.raises(RankDeficientError) as want:
        exact_check_fit_huber(data, 1.0, newton=False)
    real, solves = np.linalg.solve, []

    def counted(a, b):
        solves.append(a)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    with pytest.raises(RankDeficientError, match="condition number") as got:
        fit_huber(data, 1.0)
    assert str(got.value) == str(want.value)
    assert solves == []


def recorded_solves(monkeypatch):
    """Patch np.linalg.solve to record, as bytes, each system it solves."""
    real, systems = np.linalg.solve, []

    def recorded(a, b):
        systems.append(a.tobytes() + b.tobytes())
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    return systems


def test_fit_without_clipped_rows_at_ols_makes_no_solve(monkeypatch):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 3))
        y = x @ np.array([1.0, -0.2, 5.0]) + rng.standard_t(2.0, 40)
        data = Dataset(x, y, intercept=seed % 2 == 1)
        tau = 2.0 * np.abs(y - data.design @ data.ols_beta).max()
        solves = recorded_solves(monkeypatch)
        fit = fit_huber(data, tau)
        monkeypatch.undo()
        assert solves == []
        assert fit.beta.tobytes() == data.ols_beta.tobytes()
        assert fit.iterations == 1 and fit.converged
        fit.beta[:] = 0.0  # a copy: the cached coefficients stay
        assert np.any(data.ols_beta != 0.0)


@st.composite
def no_clip_cases(draw):
    d = draw(st.integers(1, 6))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(d + 2, 120)),
        d=d,
        intercept=draw(st.booleans()),
        # columns near 1e12 leave an OLS gradient above the test's tolerance
        log_scale=draw(st.floats(-3, 13)),
        ratio=draw(st.just(1.0) | st.floats(1.0, 4.0)),
    )


def test_tau_clipping_no_ols_residual_returns_the_sweep_answer(monkeypatch):
    """At tau >= max|r_OLS| the fit answers from the dataset's cache; every
    field equals the exact-check oracle's bit for bit, where the gradient
    test passes ("converged") and where it fails at the zero step
    ("no_descent").  One ulp below, a row is clipped and the loop runs."""
    seen = {"converged": 0, "no_descent": 0}

    @settings(max_examples=150, deadline=None)
    @given(no_clip_cases())
    @example(dict(seed=1, n=50, d=3, intercept=True, log_scale=0.0, ratio=1.0))
    @example(dict(seed=0, n=40, d=2, intercept=False, log_scale=12.0,
                  ratio=1.0))
    @example(dict(seed=0, n=40, d=2, intercept=False, log_scale=12.0,
                  ratio=2.0))
    def check(case):
        rng = np.random.default_rng(case["seed"])
        n, d, scale = case["n"], case["d"], 10.0 ** case["log_scale"]
        x = rng.standard_normal((n, d)) * scale
        y = x @ (rng.standard_normal(d) / scale) + rng.standard_t(2.0, n)
        data = Dataset(x, y, intercept=case["intercept"])
        try:
            reach = data._ols_resid_max
        except RankDeficientError:
            return
        tau = reach * case["ratio"]
        for cfg in (IRLS_DEFAULTS, SolverConfig(max_iter=1)):
            fit = fit_huber(data, tau, cfg)
            assert_fit_is(fit, exact_check_fit_huber(data, tau, cfg))
            seen[fit.stop_reason] += 1
        below = np.nextafter(reach, 0.0)
        solves = recorded_solves(monkeypatch)
        fit = fit_huber(data, below)
        monkeypatch.undo()
        assert solves
        assert_fit_is(fit, exact_check_fit_huber(data, below))

    check()
    assert seen["converged"] > 0 and seen["no_descent"] > 0


def zero_step_data():
    """Both columns near 1e12: the OLS gradient norm, 7.7e-5, fails the
    1.7e-5 gradient test, and the sweeps reach coefficients they keep."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2)) * 1e12
    y = x @ (rng.standard_normal(2) / 1e12) + rng.standard_t(2.0, 40)
    return Dataset(x, y)


def steep_case(i):
    """Case i of a battery of steep designs: n in [8, 60), d in [1, 6), each
    column scaled by 10^U(-6, 13), t(1.5) noise, y scaled by 1, 1e-6 or 1e6,
    an intercept on odd i, and tau at a U(0.05, 0.95) quantile of |r_OLS|."""
    rng = np.random.default_rng([77, i])
    n, d = int(rng.integers(8, 60)), int(rng.integers(1, 6))
    scales = 10.0 ** rng.uniform(-6, 13, d)
    x = rng.standard_normal((n, d)) * scales
    y = x @ (rng.standard_normal(d) / scales) + rng.standard_t(1.5, n)
    data = Dataset(x, y * rng.choice([1.0, 1e-6, 1e6]), intercept=i % 2 == 1)
    q = rng.uniform(0.05, 0.95)
    return data, float(np.quantile(np.abs(data._ols_resid), q))


def test_a_sweep_that_keeps_beta_ends_the_fit():
    """A sweep is a deterministic map of beta, so a zero step repeats
    forever: the fit stops there with "no_descent" instead of running out
    its 500 sweeps.  On zero_step_data without a clipped row that is the
    first sweep; at tau = 0.5 the third and at tau = 0.1 the fifth.  Steep
    case 1196 stops at its third sweep; a Newton step taken only under a
    bound on the weighted Gram's smallest eigenvalue ran it to 500 IRLS
    sweeps."""
    data = zero_step_data()
    cases = [(data, 2.0 * data._ols_resid_max, 1), (data, 0.5, 3),
             (data, 0.1, 5), (*steep_case(1196), 3)]
    for data, tau, iterations in cases:
        grad_tol = 1e-6 * (1.0 + np.linalg.norm(data.y))
        fit = fit_huber(data, tau)
        assert (fit.iterations, fit.stop_reason) == (iterations, "no_descent")
        assert not fit.converged and fit.grad_norm > grad_tol
        assert fit.trajectory[-1] == fit.trajectory[-2]
        assert_fit_is(fit, exact_check_fit_huber(data, tau))


def test_a_two_cycle_of_sweeps_ends_the_fit():
    """At the float floor the sweeps can alternate between two coefficient
    vectors: on steep case 233328 (8 rows, two columns, no intercept) sweep
    46 returns the coefficients and held key of sweep 44, so every later
    sweep repeats that pair and the fit stops there with "no_descent"
    instead of running out its 500 sweeps.  The gradient test passes, but
    the cycle's step, a few ulps of a coefficient near 1e10, exceeds tol."""
    data, tau = steep_case(233328)
    fit = fit_huber(data, tau)
    assert (fit.iterations, fit.stop_reason) == (46, "no_descent")
    assert fit.grad_norm <= 1e-6 * (1.0 + np.linalg.norm(data.y))
    betas = [fit_huber(data, tau, dataclasses.replace(IRLS_DEFAULTS, max_iter=m))
             .beta for m in (43, 44, 45)]
    assert len({b.tobytes() for b in betas}) == 3
    assert betas[1].tobytes() == fit.beta.tobytes()
    assert np.linalg.norm(betas[2] - betas[1]) > IRLS_DEFAULTS.tol
    assert fit.trajectory[-1] == fit.trajectory[-3]
    assert_fit_is(fit, exact_check_fit_huber(data, tau))


def test_fits_on_unequal_column_scales_take_newton_steps():
    """300 seeded fits with columns scaled by 10^U(-3, 3), t(1.5) noise, an
    intercept on every other fit and tau at the median |r_OLS|: every fit
    converges, in 1,199 sweeps in all and at most 48 for one (an 8-row fit
    with five coefficients, whose four unclipped rows leave every Newton
    system singular).  A Newton step taken only under a bound on the
    weighted Gram's smallest eigenvalue refused most of them: 7,001 sweeps
    in all and up to 126 for one."""
    sweeps = []
    for i in range(300):
        rng = np.random.default_rng([0, i])
        n, d = int(rng.integers(8, 60)), int(rng.integers(1, 6))
        scales = 10.0 ** rng.uniform(-3, 3, d)
        x = rng.standard_normal((n, d)) * scales
        y = x @ (rng.standard_normal(d) / scales) + rng.standard_t(1.5, n)
        data = Dataset(x, y, intercept=i % 2 == 1)
        fit = fit_huber(data, float(np.median(np.abs(data._ols_resid))))
        assert fit.converged, i
        sweeps.append(fit.iterations)
    assert sum(sweeps) <= 1300 and max(sweeps) <= 50


def test_newton_fit_solves_each_system_once(monkeypatch):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(2.0, 200)
    data = Dataset(x, y, intercept=True)
    data.ols_beta
    solves = recorded_solves(monkeypatch)
    fit = fit_huber(data, 3.0)
    fit_solves = solves[:]
    solves.clear()
    beta, iterations, stop_reason, *_ = exact_check_fit_huber(data, 3.0)
    # the oracle re-solves every sweep's system, after its own OLS start
    oracle_solves = solves[1:]
    assert fit.beta.tobytes() == beta.tobytes()
    assert ((fit.iterations, fit.stop_reason) == (iterations, stop_reason)
            == (3, "converged"))
    assert len(oracle_solves) == 3
    assert len(fit_solves) == len(set(fit_solves)) == 2
    assert set(fit_solves) == set(oracle_solves)


def test_large_fit_without_clipped_rows_stays_near_the_oracle():
    rng = np.random.default_rng(5)
    n = 3000
    x = rng.standard_normal((n, 4))
    y = x @ np.array([1.0, -0.2, 5.0, 0.5]) + rng.standard_t(2.0, n)
    data = Dataset(x, y, intercept=True)
    tau = 2.0 * np.abs(y - data.design @ data.ols_beta).max()
    fit = fit_huber(data, tau)
    # the oracle re-solves the OLS system through a weighted Gram, which
    # may reach BLAS by another routine than the cached Gram: the last bits
    # may differ, but not by more than rounding
    beta, iterations, stop_reason, *_ = exact_check_fit_huber(data, tau)
    assert ((fit.iterations, fit.stop_reason) == (iterations, stop_reason)
            == (1, "converged"))
    assert np.linalg.norm(fit.beta - beta) <= 1e-13 * np.linalg.norm(beta)


def test_table1_solves_each_newton_system_once(monkeypatch):
    real, solves = tuning.fit_huber, []
    systems = recorded_solves(monkeypatch)

    def counted(data, tau, cfg=None):
        data.ols_beta  # the fold's OLS solve is not the fit's
        start = len(systems)
        fit = real(data, tau, cfg)
        solves.append(len(systems) - start)
        return fit

    monkeypatch.setattr(tuning, "fit_huber", counted)
    run_table1(reps=3, seed=0, threads=1)
    assert len(solves) == 117
    # 44 solves for the 161 sweeps of test_table1_sweep_count_stays_pinned
    assert sum(solves) <= 50


def test_table1_sweep_count_stays_pinned(monkeypatch):
    real, real_loss = tuning.fit_huber, irls._loss_score
    sweeps, losses, ols_answers = [], [], []

    def counted_loss(r, tau):
        losses[-1] += 1
        return real_loss(r, tau)

    def counted(data, tau, cfg=None):
        losses.append(0)
        fit = real(data, tau, cfg)
        sweeps.append(fit.iterations)
        ols_answers.append(fit.iterations == 1
                           and fit.beta.tobytes() == data.ols_beta.tobytes())
        return fit

    monkeypatch.setattr(tuning, "fit_huber", counted)
    monkeypatch.setattr(irls, "_loss_score", counted_loss)
    run_table1(reps=3, seed=0, threads=1)
    assert len(sweeps) == 117
    # 161 sweeps; IRLS-only sweeps took 403 for the same fits
    assert sum(sweeps) <= 200
    # 77 fits clip no OLS residual and return OLS from the dataset's cache,
    # computing no loss of their own; every other fit runs the sweep loop
    assert sum(ols_answers) == 77
    assert [n == 0 for n in losses] == ols_answers
