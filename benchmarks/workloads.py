"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
hands out operations one round at a time.  An operation is one call into a
public entry point of the package; it returns whether its fit converged and
a check to run after timing ends.  A check returns ``None`` when the output
is right and a message when it is not.  Every check holds at any seed.

Inputs are drawn here with numpy, not with the package's own generators, so
that every commit under comparison receives the same inputs.

mc_lowdim    many tiny fits: Python overhead per fit, the ``simulate``
             thread pool and the CV glue dominate; arrays are small.
l1_highdim   the LAMM inner loop does nearly all the work; no CSV I/O and
             no IRLS.
cli_large_n  tall arrays read from CSV: parsing dominates and IRLS runs a
             few sweeps over n = 100,000 rows.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from adahuber import cli, dataio, irls, lamm, truncated, tuning
from adahuber.core import Dataset, HuberParams

BETA_HEAD = (5.0, -2.0, 0.0, 0.0, 3.0)
KKT_TOL = 1e-4
# largest objective rise tolerated between LAMM iterations (criterion 4)
MONOTONE_SLACK = 1e-10


def beta_star(d: int) -> np.ndarray:
    out = np.zeros(d)
    out[: min(d, 5)] = BETA_HEAD[: min(d, 5)]
    return out


def derived_seed(*key: int) -> int:
    """A 32-bit seed for the program, drawn from the workload seed and a key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_key_values(path: str) -> dict:
    return {row["key"]: row["value"] for row in read_rows(path)}


def exit_code_problem(rc: int, converged: bool) -> str | None:
    want = 0 if converged else 2
    if rc != want:
        return f"exit code {rc} but converged={converged} (expected {want})"
    return None


def l1_fit_problem(fit, data: Dataset, tau: float, lam: float) -> str | None:
    """An l1 fit's objective never rises; a converged one passes KKT."""
    if fit.trajectory is None or len(fit.trajectory) < 1:
        return "l1 fit recorded no objective trajectory"
    rise = float(np.max(np.diff(fit.trajectory), initial=-np.inf))
    if rise > MONOTONE_SLACK:
        return f"l1 objective rose by {rise:.3e}"
    if fit.converged and not lamm.kkt_satisfied(fit.beta, data, tau, lam, tol=KKT_TOL):
        return f"converged l1 fit fails KKT at {KKT_TOL}"
    return None


class McLowdim:
    """In-process ``adahuber simulate --experiment table1`` at small size:
    30 replications per op, each an OLS fit plus a 4x4x3-fold CV."""

    name = "mc_lowdim"
    reps = 10
    noises = 3
    trace_rounds = 16

    def __init__(self, work: str, seed: int, threads: int):
        self.work, self.seed, self.threads = work, seed, threads

    def _args(self, op_seed: int, out: str, threads: int) -> list[str]:
        return ["simulate", "--experiment", "table1", "--reps", str(self.reps),
                "--n", "100", "--d", "5", "--threads", str(threads),
                "--seed", str(op_seed), "--out", out]

    def setup(self) -> None:
        out = os.path.join(self.work, "warmup.csv")
        if cli.main(self._args(derived_seed(self.seed, 0, 0), out, self.threads)) != 0:
            raise RuntimeError("warm-up simulate op failed")

    def out_path(self, tag: str, r: int) -> str:
        return os.path.join(self.work, f"sim-{tag}-{r}.csv")

    def round(self, r: int, tag: str, threads: int | None = None) -> list:
        out = self.out_path(tag, r)
        args = self._args(derived_seed(self.seed, 1, r), out, threads or self.threads)

        def op():
            rc = cli.main(args)
            if rc == 1:
                raise RuntimeError("simulate exited with code 1")
            return rc == 0, lambda: self.check(rc, out)

        return [("simulate", op)]

    def check(self, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"simulate exited with code {rc}"
        rows = read_rows(out)
        data = [r for r in rows if r["kind"] == "data"]
        if len(data) != 2 * self.noises * self.reps:
            return f"{len(data)} data rows, expected {2 * self.noises * self.reps}"
        bad = [r for r in data if not math.isfinite(float(r["l2_error"]))]
        if bad:
            return f"{len(bad)} data rows with a non-finite l2_error"
        summary = [r for r in rows if r["kind"] == "summary"]
        if not summary or any(r["failed"] != "0" for r in summary):
            return "summary reports failed replications"
        return None


class L1Highdim:
    """Library calls on data built at setup: ``fit_l1_huber`` at n=300,
    d=500 over lambda_max * 10^(-k/2), k = 1..6, one high-dimensional
    ``cross_validate``, and the criterion-9 pair (``fit_truncated`` and plain
    ``fit_l1_huber``) on n=100, d=20 with one entry set to 1e6."""

    name = "l1_highdim"
    datasets = 24
    trace_rounds = 3
    n, d = 300, 500
    # The setting of acceptance criterion 4; it gives about 2,000 iterations
    # at lambda_max/100 and the 5,000 cap at lambda_max/1000.  The plug-in
    # rule scales tau by the raw standard deviation of y, which under t(1.5)
    # noise is set by a few draws: it moved a run's work by 40% between seeds.
    tau = 1.0
    n9, d9, varpi9, s_guess9 = 100, 20, 5.0, 3

    def __init__(self, work: str, seed: int, threads: int):
        self.work, self.seed = work, seed

    def setup(self) -> None:
        n, d, tau = self.n, self.d, self.tau
        self.sets = []
        for i in range(self.datasets):
            rng = np.random.default_rng([self.seed, 1, i])
            x = rng.standard_normal((n, d))
            y = x @ beta_star(d) + rng.standard_t(1.5, n)
            # smallest lambda at which the zero vector is stationary
            psi = np.sign(y) * np.minimum(np.abs(y), tau)
            lam_max = float(np.max(np.abs(x.T @ psi))) / n
            self.sets.append((Dataset(x, y), lam_max))
        n9, d9, s = self.n9, self.d9, self.s_guess9
        # criterion-9 parameter rules, with the clamp level fixed at 5
        ratio = n9 / math.log(d9)
        self.params9 = HuberParams(tau=math.sqrt(s) * ratio ** 0.25,
                                   lam=math.sqrt(s * math.log(d9) / n9),
                                   varpi=self.varpi9)
        self.sets9 = []
        for i in range(self.datasets):
            rng = np.random.default_rng([self.seed, 2, i])
            x = rng.standard_normal((n9, d9))
            y = x @ beta_star(d9) + rng.standard_normal(n9)
            x[0, 0] = 1e6
            self.sets9.append(Dataset(x, y))
        data, lam_max = self.sets[0]
        lamm.fit_l1_huber(data, HuberParams(tau=self.tau, lam=lam_max / 10))

    def round(self, r: int, tag: str) -> list:
        i = r % self.datasets
        data, lam_max = self.sets[i]
        ops = []
        for k in range(1, 7):
            params = HuberParams(tau=self.tau, lam=lam_max * 10 ** (-k / 2))

            def fit_op(params=params):
                fit = lamm.fit_l1_huber(data, params)
                return fit.converged, lambda: l1_fit_problem(
                    fit, data, params.tau, params.lam)

            ops.append((f"l1_k{k}", fit_op))

        def cv_op():
            c_tau, c_lambda, fit, _ = tuning.cross_validate(
                data, high_dim=True, seed=derived_seed(self.seed, 2, i))
            return fit.converged, lambda: self.check_cv(data, c_tau, c_lambda, fit)

        ops.append(("cv_highdim", cv_op))

        data9, params9 = self.sets9[i], self.params9
        clamped = Dataset(np.clip(data9.x, -params9.varpi, params9.varpi), data9.y)

        def truncated_op():
            fit = truncated.fit_truncated(data9, params9)
            return fit.converged, lambda: l1_fit_problem(
                fit, clamped, params9.tau, params9.lam)

        def plain_op():
            fit = lamm.fit_l1_huber(data9, params9)
            return fit.converged, lambda: l1_fit_problem(
                fit, data9, params9.tau, params9.lam)

        ops += [("c9_truncated", truncated_op), ("c9_plain", plain_op)]
        return ops

    def check_cv(self, data, c_tau, c_lambda, fit) -> str | None:
        n, d = data.n, data.d
        params = tuning.default_params(
            tuning.estimate_sigma_crude(data.y),
            tuning.effective_sample_size(n, d, True), math.log(n), c_tau, c_lambda)
        return l1_fit_problem(fit, data, params.tau, params.lam)


class CliLargeN:
    """In-process CLI ops, round-robin ``fit --intercept``,
    ``tune --method lepski`` and ``fit-truncated``, on CSVs of n=100,000,
    d=5 written at setup by ``dataio.save_csv``."""

    name = "cli_large_n"
    datasets = 2
    trace_rounds = 2
    n, d = 100_000, 5
    kinds = ("fit", "lepski", "fit_truncated")

    def __init__(self, work: str, seed: int, threads: int):
        self.work, self.seed = work, seed
        self._refs: dict = {}

    def csv_path(self, i: int) -> str:
        return os.path.join(self.work, f"data-{i}.csv")

    def setup(self) -> None:
        self.arrays = []
        for i in range(self.datasets):
            rng = np.random.default_rng([self.seed, 3, i])
            x = rng.standard_normal((self.n, self.d))
            y = x @ beta_star(self.d) + rng.standard_t(1.5, self.n)
            dataio.save_csv(Dataset(x, y), self.csv_path(i))
            self.arrays.append((x, y))

    def round(self, r: int, tag: str) -> list:
        i = r % self.datasets
        base = ["--input", self.csv_path(i), "--response", "y"]
        extra = {"fit": ["fit", "--intercept"],
                 "lepski": ["tune", "--method", "lepski"],
                 "fit_truncated": ["fit-truncated"]}
        checks = {"fit": self.check_fit, "lepski": self.check_lepski,
                  "fit_truncated": self.check_fit_truncated}
        ops = []
        for kind in self.kinds:
            out = os.path.join(self.work, f"{kind}-{tag}-{r}.csv")
            args = extra[kind] + base + ["--out", out]

            def op(args=args, kind=kind, out=out):
                rc = cli.main(args)
                if rc == 1:
                    raise RuntimeError(f"{kind} exited with code 1")
                return rc == 0, lambda: checks[kind](i, rc, out)

            ops.append((kind, op))
        return ops

    def reference(self, i: int, kind: str, tau: float | None = None):
        """In-process fit on the in-memory arrays the CSV was written from."""
        key = (i, kind, tau)
        if key not in self._refs:
            x, y = self.arrays[i]
            if kind == "fit":
                self._refs[key] = irls.fit_huber(Dataset(x, y, intercept=True), tau)
            else:
                self._refs[key] = tuning.lepski_select(Dataset(x, y), K=3.0, a=1.5)
        return self._refs[key]

    def check_fit(self, i: int, rc: int, out: str) -> str | None:
        kv = read_key_values(out)
        ref = self.reference(i, "fit", float(kv["tau"]))
        coefs = [float(v) for k, v in kv.items() if k.startswith("coef.")]
        if coefs != ref.beta.tolist():
            return "CLI fit coefficients differ from the in-process fit_huber"
        if (kv["converged"] == "true") != ref.converged:
            return "CLI fit convergence flag differs from the in-process fit"
        return exit_code_problem(rc, ref.converged)

    def check_lepski(self, i: int, rc: int, out: str) -> str | None:
        rows = read_rows(out)
        chosen = [int(r["j"]) for r in rows if r["selected"] == "true"]
        fit, j_hat, _ = self.reference(i, "lepski")
        if chosen != [j_hat]:
            return f"CLI lepski selected {chosen}, in-process lepski_select {j_hat}"
        return exit_code_problem(rc, fit.converged)

    def check_fit_truncated(self, i: int, rc: int, out: str) -> str | None:
        kv = read_key_values(out)
        converged = kv["converged"] == "true"
        problem = exit_code_problem(rc, converged)
        if problem or not converged:
            return problem
        x, y = self.arrays[i]
        varpi, tau, lam = (float(kv[k]) for k in ("varpi", "tau", "lambda"))
        beta = np.array([float(v) for k, v in kv.items() if k.startswith("coef.")])
        clamped = Dataset(np.clip(x, -varpi, varpi), y)
        if not lamm.kkt_satisfied(beta, clamped, tau, lam, tol=KKT_TOL):
            return f"converged CLI fit-truncated fails KKT at {KKT_TOL}"
        return None


WORKLOADS = {w.name: w for w in (McLowdim, L1Highdim, CliLargeN)}
