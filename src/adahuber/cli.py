"""Command-line front end: fit, fit-l1, fit-truncated, tune, simulate and
diagnose subcommands over headed CSV files.

Exit codes: 0 = success/converged, 2 = solver did not converge, 1 = error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import sys

from . import __version__
from .core import (
    LIBRARY_ERRORS,
    Dataset,
    DegenerateSampleError,
    HuberParams,
    mae,
    predict,
)
from .irls import IRLS_DEFAULTS, fit_huber
from .lamm import LAMM_DEFAULTS, fit_l1_huber
from .simlab import (
    GENERATOR_ID,
    ExperimentReport,
    kurtosis,
    run_lepski_study,
    run_moment_checks,
    run_neff_experiment,
    run_phase_transition,
    run_table1,
)
from .truncated import default_truncation_params, fit_truncated, predict_truncated
from .tuning import TuningGrid, cross_validate, lepski_select, plug_in
from . import dataio

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # "not converged" exit code; force usage errors onto the error status
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _floats(text: str):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _ints(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


# experiment -> simlab runner; its parameters are the flags it takes, and
# the keys of its rows (table1: of its report) are the output columns
_EXPERIMENTS = {
    "table1": run_table1,
    "phase": run_phase_transition,
    "neff": run_neff_experiment,
    "moments": run_moment_checks,
    "lepski": run_lepski_study,
}
# parsed simulate values that are not runner arguments
_OUTPUT_FLAGS = ("command", "experiment", "out", "format")
# tune method -> its flags: --grid and --folds set the TuningGrid, the others
# are keywords of cross_validate or (less "lepski_") of lepski_select
_TUNE_METHODS = {
    "cv": ("grid", "folds", "high_dim", "seed"),
    "lepski": ("lepski_K", "lepski_a"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a new
    namespace and keeps no state in the parser."""
    parser = _Parser(prog="adahuber",
                     description="Adaptive Huber regression toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--response", required=True,
                       help="name of the response column")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--intercept", action="store_true",
                       help="fit an unpenalized intercept")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=dataio._FORMATS, default="csv")

    def add_solver(p, penalized):
        p.add_argument("--tau", type=float, default=None)
        if penalized:
            p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)

    p_fit = sub.add_parser("fit", help="unpenalized adaptive Huber regression")
    add_io(p_fit)
    add_solver(p_fit, penalized=False)

    p_l1 = sub.add_parser("fit-l1", help="l1-regularized adaptive Huber regression")
    add_io(p_l1)
    add_solver(p_l1, penalized=True)

    p_tr = sub.add_parser("fit-truncated",
                          help="l1 fit with clamped covariates")
    add_io(p_tr)
    add_solver(p_tr, penalized=True)
    p_tr.add_argument("--varpi", type=float, default=None,
                      help="covariate clamp level")
    p_tr.add_argument("--s-guess", type=int, default=None,
                      help="sparsity guess for the default parameter rules")

    # the method flags default to None so that only the ones given reach the
    # library, whose defaults apply otherwise
    p_tune = sub.add_parser("tune", help="select tau/lambda from data")
    add_io(p_tune)
    p_tune.add_argument("--method", choices=tuple(_TUNE_METHODS), default="cv")
    p_tune.add_argument("--grid", type=_floats, default=None,
                        help="comma-separated constants for c_tau "
                             "(and c_lambda with --high-dim)")
    p_tune.add_argument("--folds", type=int, default=None)
    p_tune.add_argument("--high-dim", action="store_true", default=None,
                        help="tune the l1-penalized estimator")
    p_tune.add_argument("--seed", type=int, default=None)
    p_tune.add_argument("--lepski-K", type=float, default=None)
    p_tune.add_argument("--lepski-a", type=float, default=None)

    # likewise for the runner flags other than --seed
    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--experiment", choices=tuple(_EXPERIMENTS),
                       required=True)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--d", type=int, default=None)
    p_sim.add_argument("--df-grid", type=_floats, default=None)
    p_sim.add_argument("--n-grid", type=_ints, default=None)
    p_sim.add_argument("--d-grid", type=_ints, default=None)
    p_sim.add_argument("--high-dim", action="store_true", default=None)
    p_sim.add_argument("--threads", type=int, default=None,
                       help="worker processes: the caller runs one share and "
                       "forks workers - 1 children, each reaped before the run "
                       "returns; serial where fork is unavailable (also "
                       "ADAHUBER_THREADS)")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--format", choices=dataio._FORMATS, default="csv")

    p_diag = sub.add_parser("diagnose",
                            help="per-column kurtosis heavy-tail report")
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--response", required=False, default=None)
    p_diag.add_argument("--delimiter", default=",")
    p_diag.add_argument("--out", default=None)
    p_diag.add_argument("--format", choices=dataio._FORMATS, default="csv")
    return parser


def _load(args) -> Dataset:
    data = dataio.load_csv(args.input, args.response, args.delimiter)
    return dataclasses.replace(data, intercept=True) if args.intercept else data


def _given(args, names) -> dict:
    """The flags among ``names`` that were given (a flag left out is None)."""
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def _override(base, **given):
    """``base`` with every given value that is not None put in its place."""
    return dataclasses.replace(
        base, **{k: v for k, v in given.items() if v is not None})


def _refuse(what: str, given, takes) -> None:
    """Reject the given flags (parsed names) that ``what`` does not take."""
    unused = [f"--{k.replace('_', '-')}" for k in given if k not in takes]
    if unused:
        raise ValueError(f"{what} does not take " + ", ".join(unused))


def _coef_records(data: Dataset, beta) -> list:
    names = list(data.column_names or [f"x{j + 1}" for j in range(data.d)])
    if data.intercept:
        names.append("(intercept)")
    return [{"key": f"coef.{name}", "value": float(b)}
            for name, b in zip(names, beta)]


def _emit_fit(args, data: Dataset, fit, params: HuberParams,
              in_sample_mae: float, tuned: bool) -> int:
    records = _coef_records(data, fit.beta)
    records += [
        {"key": "tau", "value": params.tau},
        {"key": "lambda", "value": params.lam},
        {"key": "varpi", "value": params.varpi},
        {"key": "params_from_data", "value": bool(tuned)},
        {"key": "converged", "value": bool(fit.converged)},
        {"key": "stop_reason", "value": fit.stop_reason},
        {"key": "iterations", "value": int(fit.iterations)},
        {"key": "matvecs", "value": fit.matvecs},
        {"key": "inner_total", "value": fit.inner_total},
        {"key": "objective", "value": float(fit.objective)},
        {"key": "grad_norm", "value": float(fit.grad_norm)},
        {"key": "mae_in_sample", "value": in_sample_mae},
        {"key": "n", "value": data.n},
        {"key": "d", "value": data.d},
        {"key": "version", "value": __version__},
    ]
    out = args.out if args.out else sys.stdout
    dataio.write_records(records, ("key", "value"), out, fmt=args.format)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


# fit subcommand -> (solver, solver defaults, rule for the parameters left out)
_FITS = {
    "fit": (lambda data, params, cfg: fit_huber(data, params.tau, cfg),
            IRLS_DEFAULTS,
            lambda data, args: HuberParams(plug_in(data, False)().tau)),
    "fit-l1": (fit_l1_huber, LAMM_DEFAULTS,
               lambda data, args: plug_in(data, True)()),
    "fit-truncated": (fit_truncated, LAMM_DEFAULTS,
                      lambda data, args: default_truncation_params(
                          data.n, data.d, args.s_guess)),
}


def cmd_fit(args) -> int:
    """fit, fit-l1 and fit-truncated: the rule runs only when a parameter
    the subcommand takes (--tau, --lambda, --varpi) is left out."""
    solve, base, rule = _FITS[args.command]
    data = _load(args)
    cfg = _override(base, tol=args.tol, max_iter=args.max_iter)
    takes = [k for k in ("tau", "lam", "varpi") if k in vars(args)]
    given = _given(args, takes)
    tuned = len(given) < len(takes)
    if not tuned:
        _refuse(f"{args.command} with every parameter given",
                _given(args, ("s_guess",)), ())
    params = _override(rule(data, args), **given) if tuned else HuberParams(**given)
    fit = solve(data, params, cfg)
    # the MAE is taken on the design the solver saw
    pred = (predict(fit.beta, data.x, data.intercept) if params.varpi is None
            else predict_truncated(fit.beta, data.x, params.varpi, data.intercept))
    score = mae(data.y, pred)
    return _emit_fit(args, data, fit, params, score, tuned)


def cmd_tune(args) -> int:
    data = _load(args)
    given = _given(args, sum(_TUNE_METHODS.values(), ()))
    _refuse(f"--method {args.method}", given, _TUNE_METHODS[args.method])
    if args.method == "cv":
        grid = _override(TuningGrid(), constants=args.grid, folds=args.folds)
        _, _, fit, table = cross_validate(
            data, grid, **_given(args, ("high_dim", "seed")))
        records = [{"cell": i, **row, "forced": len(table) == 1}
                   for i, row in enumerate(table)]
    else:
        fit, j_hat, diag = lepski_select(
            data, **{k.removeprefix("lepski_"): v for k, v in given.items()})
        records = [{"j": j, "sigma": sigma, "tau": tau, "threshold": thr,
                    "max_distance_to_later": dist, "selected": j == j_hat}
                   for j, (sigma, tau, thr, dist) in enumerate(zip(
                       diag["sigmas"], diag["taus"], diag["thresholds"],
                       diag["max_distance_to_later"]))]
    out = args.out if args.out else sys.stdout
    dataio.write_records(records, list(records[0]), out, fmt=args.format)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def cmd_simulate(args) -> int:
    runner = _EXPERIMENTS[args.experiment]
    signature = inspect.signature(runner)
    given = _given(args, vars(args).keys() - set(_OUTPUT_FLAGS))
    _refuse(f"--experiment {args.experiment}", given, signature.parameters)
    result = runner(**given)
    if isinstance(result, ExperimentReport):
        dataio.write_report(result, args.out, fmt=args.format)
    else:
        dataio.write_records(result, list(result[0]), args.out, fmt=args.format)
    # the sidecar echoes every runner argument, defaults included, except the
    # worker count, so that runs differing only in threads match byte for byte
    bound = signature.bind(**given)
    bound.apply_defaults()
    meta = dict(bound.arguments, experiment=args.experiment,
                generator=GENERATOR_ID, version=__version__)
    del meta["threads"]
    dataio.write_meta(meta, args.out)
    return EXIT_OK


# population kurtosis of a t distribution with five degrees of freedom;
# columns beyond it are flagged as severely heavy-tailed
T5_KURTOSIS = 9.0


def cmd_diagnose(args) -> int:
    header, table = dataio.read_table(args.input, args.delimiter)
    order = list(range(len(header)))
    if args.response:
        order.insert(0, order.pop(
            dataio.column_index(args.input, header, args.response)))

    records = []
    for j in order:
        try:
            k = kurtosis(table[:, j])
            records.append({"column": header[j], "kurtosis": k,
                            "degenerate": False, "heavy": k > 3.0,
                            "severe": k > T5_KURTOSIS})
        except DegenerateSampleError:
            records.append({"column": header[j], "kurtosis": None,
                            "degenerate": True, "heavy": False,
                            "severe": False})
    out = args.out if args.out else sys.stdout
    dataio.write_records(
        records, ("column", "kurtosis", "degenerate", "heavy", "severe"),
        out, fmt=args.format)
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "fit-l1": cmd_fit,
    "fit-truncated": cmd_fit,
    "tune": cmd_tune,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (*LIBRARY_ERRORS, OSError) as exc:
        print(f"adahuber: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
