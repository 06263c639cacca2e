"""Benchmark of the adahuber package: one command, three workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload mc_lowdim --seed 7 --seconds 35 --trace 0

Each workload runs closed-loop from one client in this process: the next
operation starts when the previous one returns.  An operation (op) is one
call into a public entry point, so its latency is the time to a solution at
the solver's stated tolerance.  Outputs are checked after timing ends; an op
that raises or fails its check counts as failed.

``--trace 0`` measures for ``--seconds`` seconds, in whole rounds of the
workload's op mix (at least two), and reports the end-to-end metrics of
``BENCHMARK.json``:

    setup_s          import of the package plus the median of three builds of
                     the workload's inputs (each ending with a warm-up op
                     where the workload has one)
    op_p50_ms        median op latency
    op_p90_ms        90th percentile op latency (inclusive deciles)
    ops_per_s        ops completed per second of op time
    peak_rss_mb      peak resident set size of the process
    converged_frac   share of ops whose fit converged (exit code 0 on CLI ops)

Every time in them is corrected for contention from other tenants of the
host (see ``Probe``); the output also prints the times as taken.
``error_frac`` (``failed / attempted`` of the result line) and
``nonconverged_frac`` (ops that returned without converging, over ops
attempted) can read 0, so they are printed rather than bounded; the traced
run reports them as ``ops.error_frac`` and ``ops.nonconverged_frac``.

``--trace 1`` ignores ``--seconds`` and runs a fixed number of rounds four
times: untraced, traced twice (the two traced passes must give identical
deterministic counts, or the run fails), and, for ``mc_lowdim``, untraced
with ``--threads 1``, whose outputs must equal the pooled ones byte for byte.
It reports the per-layer metrics, each a total or a per-call mean over the
first traced pass (span times as taken; ``trace.overhead_frac`` and
``simlab.pool_speedup`` compare corrected op times), and writes that pass's
spans to
``benchmarks/_work/trace-<workload>-seed<seed>.csv.gz``.  A layer metric of a
layer the workload does not call reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS runs on one
thread and the ``simulate`` pool on min(2, nproc) threads, so that compared
commits see the same settings; the host block records them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "benchmarks" / "_work"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIT_FUNCS = ("irls.fit_huber", "lamm.fit_l1_huber")

# Which end-to-end metric, on which workload, each layer metric should move.
MOVES = {
    "dataio.load_csv.ms": "op_p50_ms on cli_large_n; none on l1_highdim",
    "dataio.load_csv.rows_per_s": "op_p50_ms on cli_large_n; none on l1_highdim",
    "dataio.write_records.ms": "op_p50_ms on mc_lowdim (small)",
    "dataio.write_report.ms": "op_p50_ms on mc_lowdim (small)",
    "cli.main.self_ms": "op_p50_ms on mc_lowdim (small)",
    "simlab.run_table1.self_ms": "op_p50_ms on mc_lowdim",
    "simlab.gen_linear_data.ms": "op_p50_ms on mc_lowdim",
    "simlab.reps_per_s": "op_p50_ms on mc_lowdim",
    "simlab.pool_speedup": "op_p50_ms on mc_lowdim",
    "tuning.cross_validate.calls": "op_p50_ms on mc_lowdim, l1_highdim",
    "tuning.cross_validate.self_ms": "op_p50_ms on mc_lowdim, l1_highdim",
    "tuning.cross_validate.fits_per_call": "op_p50_ms on mc_lowdim, l1_highdim",
    "tuning.lepski_select.self_ms": "op_p90_ms on cli_large_n",
    "tuning.lepski_select.grid_points": "op_p90_ms on cli_large_n",
    "irls.fit_huber.calls": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.fit_huber.self_ms": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.fit_huber.sweeps": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.fit_huber.us_per_sweep": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.solve_spd.calls": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.solve_spd.ms": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.fit_ols.calls": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.fit_ols.ms": "op_p50_ms on mc_lowdim, cli_large_n",
    "irls.empirical_loss.calls": "op_p50_ms on mc_lowdim, cli_large_n (redundant work)",
    "irls.gradient.calls": "op_p50_ms on mc_lowdim, cli_large_n (redundant work)",
    "lamm.fit_l1_huber.calls": "op_p90_ms, ops_per_s on l1_highdim; little on cli_large_n",
    "lamm.fit_l1_huber.self_ms": "op_p90_ms, ops_per_s on l1_highdim; little on cli_large_n",
    "lamm.fit_l1_huber.iterations": "op_p90_ms, ops_per_s on l1_highdim; little on cli_large_n",
    "lamm.fit_l1_huber.us_per_iter": "op_p90_ms, ops_per_s on l1_highdim; little on cli_large_n",
    "lamm.fit_l1_huber.max_inner": "op_p90_ms, ops_per_s on l1_highdim",
    "lamm.fit_l1_huber.nonconverged": "converged_frac on l1_highdim",
    "lamm.trials": "op_p90_ms, ops_per_s on l1_highdim",
    "lamm.accept_ratio": "op_p90_ms, ops_per_s on l1_highdim",
    "truncated.fit_truncated.self_ms": "op_p50_ms on l1_highdim, cli_large_n",
    "truncated.truncate_matrix.ms": "op_p50_ms on l1_highdim, cli_large_n",
    "trace.overhead_frac": "none; validity of the traced run",
    "ops.error_frac": "failed / attempted of the result line",
    "ops.nonconverged_frac": "converged_frac on l1_highdim",
}


def fit_extra(fit) -> tuple:
    return int(fit.iterations), int(bool(fit.converged)), int(fit.max_inner or 0)


# Result hooks: what a span keeps from the return value of these functions.
HOOKS = {
    "irls.fit_huber": fit_extra,
    "lamm.fit_l1_huber": fit_extra,
    "dataio.load_csv": lambda data: int(data.n),
    "tuning.lepski_select": lambda result: len(result[2]["sigmas"]),
}


@dataclass
class Outcome:
    kind: str
    latency: float  # seconds, as timed
    probe: float  # mean probe time on either side of the op
    converged: bool
    check: Callable[[], str | None] | None
    error: str | None


class Probe:
    """A fixed kernel, independent of the package, timed between ops.

    Other tenants of a shared host slow the benchmark for seconds at a time,
    by up to 1.7x on a 2-vCPU KVM guest (Xeon, 300 MiB shared L3), and
    sometimes for a whole run.  The probe slows with them, so a time taken
    next to probes that averaged ``around`` is reported as
    ``time * REFERENCE_S / around``: the time at the probe speed of that
    quiet host.  The garbage collector is off while the probe runs, so that
    collecting the program's garbage is charged to the program.
    """

    REFERENCE_S = 2.3e-3  # fastest probe seen on the host named above

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((100, 6))
        self.y = self.x @ np.arange(1.0, 7.0) + rng.standard_t(1.5, 100)
        self.times = []
        for _ in range(5):
            self()

    def __call__(self) -> float:
        np, x, y = self.np, self.x, self.y
        gc.disable()
        try:
            t0 = time.perf_counter()
            beta = np.zeros(6)
            for _ in range(150):  # Huber IRLS sweeps at tau = 1
                r = y - x @ beta
                w = np.minimum(1.0, 1.0 / np.maximum(np.abs(r), 1e-12))
                beta = np.linalg.solve((x * w[:, None]).T @ x, x.T @ (w * y))
            dt = time.perf_counter() - t0
        finally:
            gc.enable()
        self.times.append(dt)
        return dt

    def corrected(self, seconds: float, around: float) -> float:
        return seconds * self.REFERENCE_S / around


def measure(workload, tag: str, probe: Probe, seconds: float | None = None,
            rounds: int | None = None, tracer=None, **round_kw):
    """Run whole rounds of ops until ``seconds`` have passed or ``rounds``
    rounds are done, timing the probe between ops."""
    outcomes = []
    start = time.perf_counter()
    before = probe()
    r = 0
    while True:
        for kind, op in workload.round(r, tag, **round_kw):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    converged, check = op()
                else:
                    with tracer.open_span(f"bench.{kind}"):
                        converged, check = op()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                converged, check, error = False, None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            after = probe()
            outcomes.append(Outcome(kind, latency, (before + after) / 2,
                                    converged, check, error))
            before = after
        r += 1
        if (rounds is not None and r >= rounds) or (
                seconds is not None and r >= 2
                and time.perf_counter() - start >= seconds):
            return outcomes


def failures(outcomes) -> list[str]:
    """Run each op's output check; list the ops that failed."""
    out = []
    for o in outcomes:
        problem = o.error or o.check()
        if problem:
            out.append(f"{o.kind}: {problem}")
    return out


def read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def host_block(np, threads: int) -> list[tuple[str, str]]:
    model = next((line.split(":", 1)[1].strip()
                  for line in read_file("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = read_file(str(index / "level"))
        kind = read_file(str(index / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_file(str(index / "size"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return [
        ("cpu_model", model),
        ("nproc", str(len(os.sched_getaffinity(0)))),
        ("l2_cache", caches.get("L2", "unknown")),
        ("l3_cache", caches.get("L3", "unknown")),
        ("python", sys.version.split()[0]),
        ("numpy", np.__version__),
        ("blas", blas_name),
        ("blas_threads", ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)),
        ("ADAHUBER_THREADS", os.environ["ADAHUBER_THREADS"]),
        ("simulate_threads", str(threads)),
    ]


def nonconverged_frac(outcomes) -> float:
    return sum(not o.converged and o.error is None for o in outcomes) / len(outcomes)


def end_to_end(outcomes, probe: Probe, setup_s: float) -> dict:
    lat_ms = [probe.corrected(o.latency, o.probe) * 1e3 for o in outcomes]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": deciles[8],
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "converged_frac": sum(o.converged for o in outcomes) / len(outcomes),
    }


def layer_metrics(t, overhead: float, pool_speedup: float, outcomes, failed: int) -> dict:
    def rows(label):
        return t.select(label)

    def calls(label):
        return len(rows(label))

    def mean_ms(label, col=3):
        r = rows(label)
        return sum(x[col] for x in r) / len(r) / 1e6 if r else 0.0

    def total_s(label):
        return sum(x[3] for x in rows(label)) / 1e9

    def extras(label):
        return [x[5] for x in rows(label) if x[5] != "raised" and x[5] is not None]

    def per(a, b):
        return a / b if b else 0.0

    sweeps = sum(e[0] for e in extras("irls.fit_huber"))
    lamm_fits = extras("lamm.fit_l1_huber")
    iterations = sum(e[0] for e in lamm_fits)
    trials = calls("lamm.soft_threshold")
    cv_ids = {x[0] for x in rows("tuning.cross_validate")}
    cv_fits = sum(1 for x in t.rows
                  if x[1] in cv_ids and t.sites[x[2]][1] in FIT_FUNCS)
    return {
        "dataio.load_csv.ms": mean_ms("dataio.load_csv"),
        "dataio.load_csv.rows_per_s": per(sum(extras("dataio.load_csv")),
                                          total_s("dataio.load_csv")),
        "dataio.write_records.ms": mean_ms("dataio.write_records"),
        "dataio.write_report.ms": mean_ms("dataio.write_report"),
        "cli.main.self_ms": mean_ms("cli.main", 4),
        "simlab.run_table1.self_ms": mean_ms("simlab.run_table1", 4),
        "simlab.gen_linear_data.ms": mean_ms("simlab.gen_linear_data"),
        "simlab.reps_per_s": per(calls("simlab.gen_linear_data"),
                                 total_s("simlab.run_table1")),
        "simlab.pool_speedup": pool_speedup,
        "tuning.cross_validate.calls": len(cv_ids),
        "tuning.cross_validate.self_ms": mean_ms("tuning.cross_validate", 4),
        "tuning.cross_validate.fits_per_call": per(cv_fits, len(cv_ids)),
        "tuning.lepski_select.self_ms": mean_ms("tuning.lepski_select", 4),
        "tuning.lepski_select.grid_points": per(sum(extras("tuning.lepski_select")),
                                                calls("tuning.lepski_select")),
        "irls.fit_huber.calls": calls("irls.fit_huber"),
        "irls.fit_huber.self_ms": mean_ms("irls.fit_huber", 4),
        "irls.fit_huber.sweeps": sweeps,
        "irls.fit_huber.us_per_sweep": per(total_s("irls.fit_huber") * 1e6, sweeps),
        "irls.solve_spd.calls": calls("irls.solve_spd"),
        "irls.solve_spd.ms": mean_ms("irls.solve_spd"),
        "irls.fit_ols.calls": calls("irls.fit_ols"),
        "irls.fit_ols.ms": mean_ms("irls.fit_ols"),
        "irls.empirical_loss.calls": calls("irls.empirical_loss"),
        "irls.gradient.calls": calls("irls.gradient"),
        "lamm.fit_l1_huber.calls": len(lamm_fits),
        "lamm.fit_l1_huber.self_ms": mean_ms("lamm.fit_l1_huber", 4),
        "lamm.fit_l1_huber.iterations": iterations,
        "lamm.fit_l1_huber.us_per_iter": per(total_s("lamm.fit_l1_huber") * 1e6,
                                             iterations),
        "lamm.fit_l1_huber.max_inner": max((e[2] for e in lamm_fits), default=0),
        "lamm.fit_l1_huber.nonconverged": sum(1 - e[1] for e in lamm_fits),
        "lamm.trials": trials,
        "lamm.accept_ratio": per(iterations, trials),
        "truncated.fit_truncated.self_ms": mean_ms("truncated.fit_truncated", 4),
        "truncated.truncate_matrix.ms": mean_ms("truncated.truncate_matrix"),
        "trace.overhead_frac": overhead,
        "ops.error_frac": failed / len(outcomes),
        "ops.nonconverged_frac": nonconverged_frac(outcomes),
    }


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def busy_s(outcomes, probe: Probe) -> float:
    return sum(probe.corrected(o.latency, o.probe) for o in outcomes)


def run_untraced(w, probe: Probe, seconds: float, import_s: float) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        w.setup()
        setups.append((time.perf_counter() - t0, (before + probe()) / 2))
    outcomes = measure(w, "run", probe, seconds=seconds)
    setup_s = [probe.corrected(*pair) for pair in setups]
    metrics = end_to_end(outcomes, probe, import_s + statistics.median(setup_s))
    bad = failures(outcomes)
    for kind in sorted({o.kind for o in outcomes}):
        mine = [o for o in outcomes if o.kind == kind]
        lat = [o.latency * 1e3 for o in mine]
        print(f"op {kind}: n={len(mine)} p50={statistics.median(lat):.3f} ms "
              f"(as timed; {statistics.median(probe.corrected(o.latency, o.probe) * 1e3 for o in mine):.3f} "
              f"corrected) converged={sum(o.converged for o in mine)}/{len(mine)}")
    times = probe.times
    print(f"probe: fastest {min(times) * 1e3:.3f} ms, median "
          f"{statistics.median(times) * 1e3:.3f} ms over {len(times)} runs "
          f"(reference {Probe.REFERENCE_S * 1e3:.3f} ms)")
    print(f"setup builds (s, corrected): {' '.join(f'{v:.4f}' for v in setup_s)}; "
          f"import adahuber {import_s:.4f} s")
    print(f"ops={len(outcomes)}; as timed: ops_per_s="
          f"{len(outcomes) / sum(o.latency for o in outcomes):.4f}; error_frac="
          f"{len(bad) / len(outcomes):.4f}; nonconverged_frac="
          f"{nonconverged_frac(outcomes):.4f}")
    return metrics, (outcomes, bad)


def run_traced(w, probe: Probe, tracer_mod) -> tuple[dict, list] | None:
    w.setup()
    rounds = w.trace_rounds
    ref = measure(w, "ref", probe, rounds=rounds)
    tr = tracer_mod.Tracer(hooks=HOOKS)
    tr.install()
    try:
        pass_a = measure(w, "A", probe, rounds=rounds, tracer=tr)
        spans_a = tr.spans
        tr.reset()
        pass_b = measure(w, "B", probe, rounds=rounds, tracer=tr)
        spans_b = tr.spans
    finally:
        tr.uninstall()
    table = tracer_mod.SpanTable(spans_a, tr.sites)
    counts_a, counts_b = table.counts(), tracer_mod.SpanTable(spans_b, tr.sites).counts()
    if counts_a != counts_b:
        diff = sorted(k for k in counts_a.keys() | counts_b.keys()
                      if counts_a.get(k) != counts_b.get(k))
        print("FATAL: deterministic counts differ between two traced passes "
              "on the same inputs:", file=sys.stderr)
        for k in diff:
            print(f"  {k}: {counts_a.get(k)} vs {counts_b.get(k)}", file=sys.stderr)
        return None

    outcomes = ref + pass_a + pass_b
    bad = []
    pool_speedup = 0.0
    if w.name == "mc_lowdim":
        single = measure(w, "t1", probe, rounds=rounds, threads=1)
        outcomes += single
        pool_speedup = busy_s(single, probe) / busy_s(ref, probe)
        for r in range(rounds):
            for suffix in ("", ".meta.json"):
                a, b = w.out_path("ref", r) + suffix, w.out_path("t1", r) + suffix
                if not same_bytes(a, b):
                    bad.append(f"simulate: --threads 1 and --threads {w.threads} "
                               f"outputs differ ({os.path.basename(a)})")
    bad += failures(outcomes)
    t_ref, t_a = busy_s(ref, probe), busy_s(pass_a, probe)
    metrics = layer_metrics(table, t_a / t_ref - 1.0, pool_speedup, outcomes, len(bad))

    WORK.mkdir(parents=True, exist_ok=True)
    trace_path = WORK / f"trace-{w.name}-seed{w.seed}.csv.gz"
    tr.write(str(trace_path), spans_a)
    print(f"traced rounds={rounds}: untraced {t_ref:.3f} s, traced {t_a:.3f} s "
          "(corrected); "
          f"{len(spans_a)} spans written to {trace_path.relative_to(ROOT)}")
    print("site | function | calls | inclusive ms | self ms")
    for site, func, n, incl, self_ms in table.per_site():
        print(f"  {site} | {func} | {n} | {incl:.3f} | {self_ms:.3f}")
    print("layer metric -> end-to-end metric it should move:")
    for name, target in MOVES.items():
        print(f"  {name} -> {target}")
    m = metrics
    print("deterministic counts (equal in both traced passes): "
          f"irls sweeps={m['irls.fit_huber.sweeps']}, "
          f"lamm iterations={m['lamm.fit_l1_huber.iterations']}, "
          f"lamm trials={m['lamm.trials']}, "
          f"solve_spd calls={m['irls.solve_spd.calls']}, "
          f"cv child fits={m['tuning.cross_validate.fits_per_call'] * m['tuning.cross_validate.calls']:.0f}, "
          f"lepski grid points={m['tuning.lepski_select.grid_points'] * len(table.select('tuning.lepski_select')):.0f}")
    iterations, trials = m["lamm.fit_l1_huber.iterations"], m["lamm.trials"]
    if iterations:
        print(f"lamm surrogate trials per iteration: {trials / iterations:.3f} "
              "(ROADMAP baseline: about 2)")
    if m["irls.fit_huber.calls"]:
        print(f"irls sweeps per fit_huber call: "
              f"{m['irls.fit_huber.sweeps'] / m['irls.fit_huber.calls']:.2f} "
              "(ROADMAP baseline: 16 sweeps for fit_huber at n=1e5, d=5)")
    return metrics, (outcomes, bad)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "adahuber" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'adahuber'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if set(MOVES) != {m["name"] for m in spec["per_layer"]}:
        print("error: MOVES and the per-layer metrics of BENCHMARK.json differ",
              file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # fixed before numpy loads, so that compared commits run alike
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    threads = min(2, len(os.sched_getaffinity(0)))
    os.environ["ADAHUBER_THREADS"] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    t0 = time.perf_counter()
    import adahuber
    import_s = time.perf_counter() - t0
    if Path(adahuber.__file__).resolve().parent != ROOT / "src" / "adahuber":
        print(f"error: imported adahuber from {adahuber.__file__}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    from workloads import WORKLOADS

    for key, value in host_block(np, threads):
        print(f"host.{key}: {value}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](str(work), args.seed, threads)
        probe = Probe(np)
        if args.trace:
            result = run_traced(w, probe, tracer_mod)
            if result is None:
                return 1
            wanted = spec["per_layer"]
        else:
            result = run_untraced(w, probe, args.seconds, import_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, (outcomes, bad) = result
    if set(values) != {m["name"] for m in wanted}:
        print("error: metrics computed and metrics in BENCHMARK.json differ: "
              f"{sorted(set(values) ^ {m['name'] for m in wanted})}", file=sys.stderr)
        return 2
    for problem in bad[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not bad, "attempted": len(outcomes),
                      "failed": len(bad), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
