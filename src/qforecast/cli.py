"""Command line entry points for data generation, training, and forecasting.

Exit codes: 0 on success, 1 for bad input (unparseable arguments, missing
or malformed files, impossible configurations), 2 when a variational solve
finishes without reaching its convergence tolerance.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from datetime import date

import numpy as np

from . import baselines, optimize, pauli, vqls
from .datagen import GeneratorConfig, generate
from .linsys import (
    add_months,
    preprocess,
    read_series_csv,
    write_predictions_csv,
    write_scaled_csv,
    write_series_csv,
    write_trace_csv,
)
from .modelfile import fields, load_any_model, save_model
from .pipeline import (DEFAULT_SPLIT, KINDS, ModelSpec, fit, roll_predictions,
                       run_pipeline)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; that code is reserved
    for convergence failures here, so remap parse errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, "%s: error: %s\n" % (self.prog, message))


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an ISO date (YYYY-MM-DD), got %r" % text)


def read_matrix_csv(path: str) -> np.ndarray:
    """Numeric matrix, one comma-separated row per line, no header."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, lineno, exc))
    if not rows:
        raise ValueError(path + ": no rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("%s: row %d has %d entries, expected %d"
                             % (path, i + 1, len(row), width))
    return np.array(rows)


def read_vector_csv(path: str) -> np.ndarray:
    """Numeric vector, one value per line: a one-column read_matrix_csv."""
    column = read_matrix_csv(path)
    if column.shape[1] != 1:
        raise ValueError("%s: %d values per line, expected one"
                         % (path, column.shape[1]))
    return column.ravel()


def cmd_generate(args) -> int:
    config = GeneratorConfig(start=args.start, num_months=args.months,
                             base=args.base, trend=args.trend,
                             growth=args.growth, amplitude=args.amplitude,
                             phase=args.phase, noise_std=args.noise_std,
                             seed=args.seed)
    series = generate(config)
    write_series_csv(args.out, series)
    print("wrote %d months to %s" % (len(series), args.out))
    return EXIT_OK


def cmd_preprocess(args) -> int:
    series = read_series_csv(args.input, value_column=args.value_column)
    prep = preprocess(series, args.split)
    write_scaled_csv(args.out, prep.scaled)
    print("scale %r" % float(prep.scaler.max_abs))
    print("wrote %d scaled differences to %s (%d training)"
          % (len(prep.scaled), args.out, int(prep.train.sum())))
    return EXIT_OK


def _train(args, spec: ModelSpec) -> int:
    """Fit spec on the input's pre-split windows through pipeline.fit, then
    save the model and its trace and print a summary for the kind."""
    series = read_series_csv(args.input, value_column=args.value_column)
    windows, train_rows = preprocess(series, args.split).windows(spec.window)
    X, y = windows.X[train_rows], windows.y[train_rows]
    model, trace, extras = fit(spec, X, y, args.seed)
    save_model(model, args.model_out)
    if args.trace_out and trace:
        write_trace_csv(args.trace_out, trace, "loss")
    print("trained on %d windows" % X.shape[0])
    if spec.kind == "pqc":
        print("loss %r -> %r in %d evaluations"
              % (trace[0], extras["final_loss"], extras["evaluations"]))
        print("converged %s" % extras["converged"])
    elif spec.kind == "mlp":
        print("loss %r -> %r over %d epochs"
              % (trace[0], baselines.mse(model.predict(X), y), len(trace)))
    else:
        print("training mse %r" % baselines.mse(model.predict(X), y))
    print("saved model to %s" % args.model_out)
    return EXIT_OK


def cmd_train_pqc(args) -> int:
    return _train(args, ModelSpec("pqc", window=args.window,
                                  optimizer=args.optimizer,
                                  max_iters=args.max_iters))


def cmd_train_baseline(args) -> int:
    return _train(args, ModelSpec(args.kind, window=args.window,
                                  max_iters=args.epochs))


def cmd_solve_vqls(args) -> int:
    a = read_matrix_csv(args.matrix)
    b = read_vector_csv(args.rhs)
    problem = vqls.VqlsProblem.from_system(a, b)
    result = vqls.solve(problem, optimizer=args.optimizer, seed=args.seed,
                        restarts=args.restarts, max_iters=args.max_iters,
                        estimator=args.estimator, shots=args.shots)
    print("condition number %.6g" % result.condition_number)
    weights = np.asarray(result.w).real
    for i, w in enumerate(weights):
        print("w[%d] = %r" % (i, float(w)))
    print("cost %r" % result.final_cost)
    print("residual %r" % result.residual)
    print("evaluations %d" % result.evaluations)
    print("gradient evaluations %d" % result.gradient_evaluations)
    print("converged %s" % result.converged)
    if args.trace_out:
        write_trace_csv(args.trace_out, result.cost_trace, "cost")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_decompose(args) -> int:
    a = read_matrix_csv(args.matrix)
    decomposition = pauli.decompose(a, prune_tol=args.prune_tol)
    for coefficient, string in decomposition.terms:
        print("%r\t%s" % (coefficient, string.label))
    return EXIT_OK


def _forecast_with_model(args) -> int:
    kind, model = load_any_model(args.model)
    window = fields(model)[1]
    series = read_series_csv(args.input, value_column=args.value_column)
    # the scaler is refit on the pre-split data, so pass the same series
    # and split the model was trained with
    prep = preprocess(series, args.split)
    windows, train_rows = prep.windows(window)
    preds = model.predict(windows.X)
    if args.out:
        dates, actual, predicted = prep.to_units(preds, window)
        write_predictions_csv(args.out, dates, actual, predicted)
        print("wrote %d predictions to %s" % (len(dates), args.out))
    test = ~train_rows
    print("loaded %s model (window %d)" % (kind, window))
    print("train mse %.5f" % baselines.mse(preds[train_rows],
                                           windows.y[train_rows]))
    if test.any():
        print("test mse %.5f" % baselines.mse(preds[test], windows.y[test]))
    if args.horizon:
        future_scaled = roll_predictions(model.predict, prep.scaled.values,
                                         window, args.horizon)
        future_values = series.values[-1] + np.cumsum(
            prep.scaler.invert(future_scaled))
        day = series.dates[-1]
        for step, value in enumerate(future_values, start=1):
            print("%s %.2f" % (add_months(day, step).isoformat(), value))
    return EXIT_OK


def cmd_forecast(args) -> int:
    if args.model:
        if args.out_dir:
            raise ValueError("--out-dir is for the pipeline; with --model "
                             "use --out")
        return _forecast_with_model(args)
    if args.out or args.horizon:
        raise ValueError("--out and --horizon need --model; the pipeline "
                         "writes to --out-dir")
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    specs = [ModelSpec(kind=kind, restarts=args.vqls_restarts,
                       max_iters={"pqc": args.pqc_iters,
                                  "vqls": args.vqls_iters,
                                  "mlp": args.mlp_epochs}.get(kind, 0))
             for kind in kinds]
    series = read_series_csv(args.input, value_column=args.value_column)
    run = run_pipeline(series, specs=specs, split_date=args.split,
                       seed=args.seed, out_dir=args.out_dir)
    print(run.table())
    details = run.details()
    if details:
        print()
        print(details)
    if args.out_dir:
        print()
        print("artifacts in %s" % args.out_dir)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predicted = read_series_csv(args.predictions, value_column="Predicted")
    if args.actuals:
        actual = read_series_csv(args.actuals,
                                 value_column=args.value_column)
    else:
        actual = read_series_csv(args.predictions, value_column="Actual")
    if predicted.dates != actual.dates:
        for p, a in zip(predicted.dates, actual.dates):
            if p != a:
                raise ValueError("dates differ: predictions have %s where "
                                 "actuals have %s" % (p, a))
        raise ValueError("date ranges differ: %d predictions vs %d actuals"
                         % (len(predicted), len(actual)))
    errors = predicted.values - actual.values
    print("n %d" % errors.size)
    print("mse %r" % float(np.mean(errors ** 2)))
    print("rmse %r" % float(np.sqrt(np.mean(errors ** 2))))
    print("mae %r" % float(np.mean(np.abs(errors))))
    nonzero = actual.values != 0
    if nonzero.any():
        mape = float(np.mean(np.abs(errors[nonzero]
                                    / actual.values[nonzero])) * 100)
        print("mape %.4f%%" % mape)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qforecast",
                     description="Quantum-assisted monthly forecasting")
    sub = parser.add_subparsers(dest="command", required=True)
    series_args = argparse.ArgumentParser(add_help=False)
    series_args.add_argument("input")
    series_args.add_argument("--split", type=_iso_date, default=DEFAULT_SPLIT)
    series_args.add_argument("--value-column", default=None)
    train_args = argparse.ArgumentParser(add_help=False, parents=[series_args])
    train_args.add_argument("--model-out", required=True)
    train_args.add_argument("--trace-out", default=None)
    train_args.add_argument("--window", type=int, default=0)
    train_args.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="write a synthetic monthly series")
    p.add_argument("--out", required=True)
    p.add_argument("--months", type=int, default=GeneratorConfig.num_months)
    p.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    p.add_argument("--start", type=_iso_date, default=GeneratorConfig.start)
    p.add_argument("--base", type=float, default=GeneratorConfig.base)
    p.add_argument("--trend", type=float, default=GeneratorConfig.trend)
    p.add_argument("--growth", type=float, default=GeneratorConfig.growth)
    p.add_argument("--amplitude", type=float,
                   default=GeneratorConfig.amplitude)
    p.add_argument("--phase", type=float, default=GeneratorConfig.phase)
    p.add_argument("--noise-std", type=float,
                   default=GeneratorConfig.noise_std)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", parents=[series_args],
                       help="difference a series and scale it by its "
                            "largest training difference")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-pqc", parents=[train_args],
                       help="fit the parameterized-circuit regressor")
    p.add_argument("--optimizer", choices=optimize.METHODS,
                   default=ModelSpec.optimizer)
    p.add_argument("--max-iters", type=int, default=0)
    p.set_defaults(func=cmd_train_pqc)

    p = sub.add_parser("train-baseline", parents=[train_args],
                       help="fit the linear or neural reference model")
    p.add_argument("--kind", choices=("linear", "mlp"), required=True)
    p.add_argument("--epochs", type=int, default=0)
    p.set_defaults(func=cmd_train_baseline)

    solve_params = inspect.signature(vqls.solve).parameters
    p = sub.add_parser("solve-vqls",
                       help="variationally solve A x = b from CSV files")
    p.add_argument("--matrix", required=True,
                   help="comma-separated rows, no header")
    p.add_argument("--rhs", required=True, help="one value per line")
    p.add_argument("--optimizer", choices=optimize.METHODS,
                   default=solve_params["optimizer"].default)
    p.add_argument("--seed", type=int, default=solve_params["seed"].default)
    p.add_argument("--restarts", type=int,
                   default=solve_params["restarts"].default)
    p.add_argument("--max-iters", type=int,
                   default=solve_params["max_iters"].default)
    p.add_argument("--estimator", choices=("analytic", "hadamard"),
                   default=solve_params["estimator"].default)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=cmd_solve_vqls)

    p = sub.add_parser("decompose",
                       help="print the Pauli expansion of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--prune-tol", type=float,
                   default=pauli.DEFAULT_PRUNE_TOL)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("forecast", parents=[series_args],
                       help="run the full pipeline, or apply a saved model")
    p.add_argument("--model", default=None,
                   help="apply this saved model instead of training")
    p.add_argument("--out", default=None,
                   help="predictions CSV (saved-model mode)")
    p.add_argument("--horizon", type=int, default=0,
                   help="months to forecast past the end of the data")
    p.add_argument("--out-dir", default=None,
                   help="artifact directory (pipeline mode)")
    p.add_argument("--models", default=",".join(KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pqc-iters", type=int, default=0)
    p.add_argument("--vqls-iters", type=int, default=0)
    p.add_argument("--vqls-restarts", type=int, default=ModelSpec.restarts)
    p.add_argument("--mlp-epochs", type=int, default=0)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate",
                       help="score a Date,Actual,Predicted CSV")
    p.add_argument("predictions")
    p.add_argument("--actuals", default=None,
                   help="compare against this series instead of the "
                        "Actual column")
    p.add_argument("--value-column", default=None)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
