import dataclasses
import math
import os
import threading

import numpy as np
import pytest

from adahuber import _forkjoin, simlab
from adahuber.core import (
    DegenerateSampleError,
    NumericalFailureError,
    RankDeficientError,
    mae,
)
from adahuber.simlab import (
    ExperimentSpec,
    NoiseSpec,
    check_bias_decay,
    check_truncated_moments,
    default_beta_star,
    gen_linear_data,
    kurtosis,
    run_lepski_study,
    run_moment_checks,
    run_neff_experiment,
    run_phase_transition,
    run_table1,
)


# ----------------------------------------------------------------- noise spec

def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseSpec.normal(0.0)
    with pytest.raises(ValueError):
        NoiseSpec.student_t(1.0)
    with pytest.raises(ValueError):
        NoiseSpec.lognormal(0.0)
    with pytest.raises(ValueError):
        NoiseSpec("cauchy")


def test_noise_spec_has_one_parameter():
    assert [f.name for f in dataclasses.fields(NoiseSpec)] == ["family", "param"]
    assert NoiseSpec.student_t(2.5) == NoiseSpec("student_t", 2.5)
    assert NoiseSpec.normal(0.5).label() == "normal(0.5)"
    with pytest.raises(ValueError):
        NoiseSpec("normal")
    with pytest.raises(ValueError):
        NoiseSpec("normal", math.nan)


def test_noise_draws_follow_each_family_formula():
    def draw(noise):
        return noise.sample(np.random.default_rng(3), 500).tobytes()

    gen = np.random.default_rng
    assert draw(NoiseSpec.normal(4.0)) == gen(3).normal(0.0, 2.0, 500).tobytes()
    assert draw(NoiseSpec.student_t(1.5)) == gen(3).standard_t(1.5, 500).tobytes()
    lognormal = np.exp(gen(3).normal(0.0, 2.0, 500)) - math.exp(2.0)
    assert draw(NoiseSpec.lognormal(4.0)) == lognormal.tobytes()


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(10, 3, np.zeros(2), NoiseSpec.normal(1.0))


def test_default_beta_star():
    assert default_beta_star(5).tolist() == [5.0, -2.0, 0.0, 0.0, 3.0]
    b = default_beta_star(100)
    assert b[:5].tolist() == [5.0, -2.0, 0.0, 0.0, 3.0]
    assert np.all(b[5:] == 0.0)
    assert default_beta_star(2).tolist() == [5.0, -2.0]


# ------------------------------------------------------------- data generator

def test_generator_deterministic():
    spec = ExperimentSpec(50, 4, default_beta_star(4), NoiseSpec.student_t(2.0),
                          seed=123)
    a, _ = gen_linear_data(spec, 7)
    b, _ = gen_linear_data(spec, 7)
    c, _ = gen_linear_data(spec, 8)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_generator_normal_variance():
    spec = ExperimentSpec(100_000, 2, np.zeros(2), NoiseSpec.normal(4.0), seed=0)
    data, _ = gen_linear_data(spec)
    assert 3.8 <= np.var(data.y) <= 4.2


def test_generator_lognormal_centering():
    spec = ExperimentSpec(200_000, 1, np.zeros(1), NoiseSpec.lognormal(1.0), seed=1)
    data, _ = gen_linear_data(spec)
    assert abs(np.mean(data.y)) < 0.05


# ------------------------------------------------------------------ summaries

def test_kurtosis_hand_cases():
    assert kurtosis([-1.0, 1.0, -1.0, 1.0]) == pytest.approx(1.0)
    v = np.zeros(10)
    v[-1] = 100.0
    assert kurtosis(v) == pytest.approx(8.11, abs=0.01)


def test_kurtosis_normal_reference():
    rng = np.random.default_rng(5)
    assert kurtosis(rng.standard_normal(100_000)) == pytest.approx(3.0, abs=0.1)


def test_kurtosis_validation():
    with pytest.raises(DegenerateSampleError):
        kurtosis([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateSampleError):
        kurtosis([1.0, 2.0])


def test_mae():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    perm = rng.permutation(40)
    assert mae(a, b) == pytest.approx(mae(a[perm], b[perm]))
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


# ---------------------------------------------------------------- experiments

def test_table1_smoke_shape():
    report = run_table1(reps=2, seed=5, threads=1)
    assert len(report.rows) == 2 * 2 * 3  # reps x estimators x noise families
    assert len(report.summary) == 6
    noises = {r["noise"] for r in report.rows}
    assert noises == {"normal(4)", "student_t(1.5)", "lognormal(4)"}


def test_table1_thread_count_invariance():
    a = run_table1(reps=3, seed=9, threads=1)
    b = run_table1(reps=3, seed=9, threads=4)
    assert a.rows == b.rows
    assert a.summary == b.summary


def test_table1_takes_one_spectrum_per_dataset(checked_solves):
    run_table1(reps=2, seed=5, threads=1)
    grams, systems = checked_solves()
    # per replication: the full data, shared by the OLS row and the CV refit,
    # and each fold's training set; beside them one spectrum per system a
    # fit solves, its rank check
    assert grams == 2 * len(simlab.TABLE1_NOISES) * (simlab.TABLE1_GRID.folds + 1)
    assert systems > 0


def test_table1_solves_ols_once_per_dataset(ols_solves):
    run_table1(reps=2, seed=5, threads=1)
    # the OLS row and the CV refit share the full data's solve
    assert len(ols_solves) == 2 * len(simlab.TABLE1_NOISES) * (simlab.TABLE1_GRID.folds + 1)


def test_table1_raises_errors_outside_the_library_families(monkeypatch):
    # a bug (here a TypeError) must surface instead of becoming a NaN row
    def broken(data):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(simlab, "fit_ols", broken)
    for threads in (1, 2):  # a worker process re-raises it in the caller
        with pytest.raises(TypeError, match="not a solver failure"):
            run_table1(reps=1, threads=threads)


def test_table1_records_a_library_error_as_a_nan_row(monkeypatch):
    def rank_deficient(data):
        raise RankDeficientError("injected")

    monkeypatch.setattr(simlab, "fit_ols", rank_deficient)
    report = run_table1(reps=3, seed=5, threads=1)
    errors = {name: [r["l2_error"] for r in report.rows
                     if r["estimator"] == name] for name in ("ols", "ahuber")}
    assert len(errors["ols"]) == 9 and all(map(math.isnan, errors["ols"]))
    assert len(errors["ahuber"]) == 9 and all(map(math.isfinite, errors["ahuber"]))
    assert [s["failed"] for s in report.summary] == [0, 3] * 3


def test_phase_counts_library_errors_as_failed_replications(monkeypatch):
    def diverged(data, tau, cfg=None):
        raise NumericalFailureError("injected")

    monkeypatch.setattr(simlab, "fit_huber", diverged)
    rows = run_phase_transition([1.5, 3.0], n=120, d=3, reps=2, seed=2, threads=1)
    assert [row["failed"] for row in rows] == [2, 2]
    assert all(math.isnan(row["mean_l2_error"]) for row in rows)


def test_phase_rows_and_delta_mapping():
    rows = run_phase_transition([1.5, 3.0], n=120, d=3, reps=2, seed=2, threads=1)
    assert len(rows) == 2
    assert rows[0]["delta"] == pytest.approx(0.45)
    assert rows[1]["delta"] == pytest.approx(1.95)
    with pytest.raises(ValueError):
        run_phase_transition([1.0], n=50, d=2, reps=1, seed=0)


@pytest.mark.parametrize("run", [
    lambda: run_table1(reps=0),
    lambda: run_phase_transition(reps=0),
    lambda: run_phase_transition(df_grid=()),
    lambda: run_neff_experiment(reps=-1),
    lambda: run_neff_experiment(d_grid=()),
    lambda: run_neff_experiment(n_grid=[]),
    lambda: run_lepski_study(reps=-2),
], ids=["table1-reps", "phase-reps", "phase-df", "neff-reps", "neff-d",
        "neff-n", "lepski-reps"])
def test_experiments_reject_empty_runs(run):
    with pytest.raises(ValueError, match="reps >= 1 and nonempty grids"):
        run()


def test_neff_rows_include_effective_sample_size():
    rows = run_neff_experiment([50], [100, 200], reps=2, seed=4, threads=1)
    assert len(rows) == 2
    for row, n in zip(rows, (100, 200)):
        assert row["n"] == n
        assert row["n_eff"] == pytest.approx(n / math.log(50))


def test_neff_one_covariate_reports_the_rule_it_fitted_with():
    # n / log d is undefined at d = 1, where the plug-in rule uses n
    rows = run_neff_experiment([1], [60], reps=1, seed=4, threads=1)
    assert rows[0]["n_eff"] == 60.0


def test_lepski_study_raises_a_library_error_from_a_worker(monkeypatch):
    def rank_deficient(data):
        raise RankDeficientError("injected")

    monkeypatch.setattr(simlab, "lepski_select", rank_deficient)
    with pytest.raises(RankDeficientError, match="injected"):
        run_lepski_study(n=60, d=2, reps=2, threads=2)


def assert_no_child_process():
    # at the OS level: any child left, finished or not, would be returned here
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_run_leaves_no_worker_process():
    run_table1(reps=2, seed=5, threads=2)
    assert_no_child_process()


def test_pool_starts_no_more_workers_than_indices(forks):
    assert _forkjoin._map_ordered(lambda i: i * i, (3,), 8) == [0, 1, 4]
    assert len(forks) == 2  # the caller is the third worker
    assert _forkjoin._map_ordered(lambda i: i, (1,), 8) == [0]
    assert len(forks) == 2  # one index runs in the caller
    assert_no_child_process()


def test_map_starts_no_thread_before_it_forks(forks):
    _forkjoin._map_ordered(lambda i: i, (6,), 3)
    assert forks == [1, 1]


def test_map_is_serial_without_fork(forks, monkeypatch):
    monkeypatch.setattr(_forkjoin, "_FORK", False)
    assert _forkjoin._map_ordered(lambda i, j: (i, j), (2, 2), 2) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert forks == []
    with pytest.raises(ValueError, match="threads must be at least 1"):
        _forkjoin._map_ordered(lambda i: i, (2,), 0)


def test_map_runs_one_share_in_the_caller():
    pids = _forkjoin._map_ordered(lambda i: os.getpid(), (5,), 2)
    assert len(set(pids)) == 2 and os.getpid() in pids
    assert pids[::2] == [os.getpid()] * 3  # the strided share 0
    assert_no_child_process()


def test_map_returns_shares_larger_than_a_pipe_buffer():
    out = _forkjoin._map_ordered(lambda i: np.full(50_000, i), (4,), 3)
    for i, v in enumerate(out):
        np.testing.assert_array_equal(v, np.full(50_000, i))
    assert_no_child_process()


def fails_at(index, error):
    def fn(i):
        if i == index:
            raise error
        return np.full(50_000, i)  # fills the pipe of a child that does not fail
    return fn


@pytest.mark.parametrize("index", [0, 1], ids=["caller", "child"])
def test_map_raises_a_share_error_with_its_type(index):
    with pytest.raises(KeyError, match="injected") as raised:
        _forkjoin._map_ordered(fails_at(index, KeyError("injected")), (4,), 2)
    if index:  # a child's traceback comes back as the error's cause
        assert "in worker 1:" in str(raised.value.__cause__)
        assert "raise error" in str(raised.value.__cause__)
    assert_no_child_process()


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.lock = threading.Lock()


def exits_at_1(i):
    if i == 1:
        os._exit(3)
    return i


@pytest.mark.parametrize("fn, status", [(exits_at_1, 3),
                                        (fails_at(1, Unpicklable()), 1)],
                         ids=["os-exit", "unpicklable-error"])
def test_map_names_a_child_that_sends_no_results(fn, status):
    with pytest.raises(RuntimeError, match=f"worker 1 ended with exit status {status} "):
        _forkjoin._map_ordered(fn, (4,), 2)
    assert_no_child_process()


def test_default_worker_count_follows_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("ADAHUBER_THREADS", raising=False)
    monkeypatch.setattr(_forkjoin.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _forkjoin.resolve_threads() == 1
    monkeypatch.setenv("ADAHUBER_THREADS", "3")
    assert _forkjoin.resolve_threads() == 3


# -------------------------------------------------------------- moment checks

def test_truncated_moments_symmetric_noise_unbiased():
    rep = check_truncated_moments(NoiseSpec.normal(1.0), tau=1.0, kappa=1.0,
                                  n_mc=200_000, seed=8)
    assert abs(rep["mean_psi"]) <= 3 * rep["se_psi"]
    assert rep["first_moment_ok"] and rep["second_lower_ok"] and rep["second_upper_ok"]


def test_truncated_moments_large_tau_recovers_variance():
    rep = check_truncated_moments(NoiseSpec.normal(4.0), tau=1e6, kappa=1.0,
                                  n_mc=200_000, seed=9)
    assert rep["mean_psi_sq"] == pytest.approx(rep["sigma_sq"], rel=1e-9)
    assert rep["second_upper_ok"]


def test_truncated_moments_lognormal_bounds_hold():
    rep = check_truncated_moments(NoiseSpec.lognormal(1.0), tau=2.0, kappa=1.0,
                                  n_mc=300_000, seed=10)
    assert rep["first_moment_ok"]
    assert rep["second_lower_ok"] and rep["second_upper_ok"]


def test_moment_checks_equal_per_tau_calls():
    rows = run_moment_checks(n=2000, seed=6, threads=2)
    for row, tau in zip(rows, simlab.MOMENT_TAUS):
        rep = check_truncated_moments(simlab.MOMENT_NOISE, tau, 1.0,
                                      n_mc=1_000_000, seed=6)
        assert [repr(row[k]) for k in rep] == [repr(v) for v in rep.values()]


def test_moment_checks_reject_a_bad_worker_count_before_any_work(monkeypatch):
    def too_late(*args, **kwargs):
        raise AssertionError("the worker count is checked after the work")

    monkeypatch.setattr(simlab, "check_bias_decay", too_late)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_moment_checks(threads=0)


# ------------------------------------------------------------------ bias decay

def test_bias_decay_factors_the_gram_matrix_once(monkeypatch, checked_solves):
    """The standard errors read trace(gram^-1) off the cached spectrum: one
    Gram eigvalsh per call, not one per tau, and no inverse.  The only other
    spectra are the rank checks of the systems the fits solve."""
    def no_inverse(a):
        raise AssertionError("check_bias_decay inverts a matrix")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    rows = check_bias_decay(NoiseSpec.normal(1.0), [1.0, 2.0, 4.0],
                            n_large=2000, seed=3)
    assert len(rows) == 3
    grams, systems = checked_solves()
    assert grams == 1 and systems > 0


def test_bias_decay_symmetric_noise_is_noise_level():
    rows = check_bias_decay(NoiseSpec.normal(1.0), [1.0, 4.0, 16.0],
                            n_large=40_000, seed=12)
    for row in rows:
        assert row["bias_l2"] <= 3 * row["stderr_l2"]


def test_bias_decay_huge_tau_unbiased():
    rows = check_bias_decay(NoiseSpec.lognormal(1.0), [1e12],
                            n_large=40_000, seed=13)
    assert rows[0]["bias_l2"] <= 3 * rows[0]["stderr_l2"]


def test_bias_decay_lognormal_decreasing():
    rows = check_bias_decay(NoiseSpec.lognormal(1.0), [1.0, 2.0, 4.0, 8.0, 16.0],
                            n_large=60_000, seed=14)
    biases = [r["bias_l2"] for r in rows]
    assert all(np.diff(biases) < 0)
    assert biases[-1] <= 0.2 * biases[0]
