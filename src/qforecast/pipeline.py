"""End-to-end forecasting runs over a monthly series.

One pipeline run differences the series, scales the differences by the
training maximum, slides windows over the scaled values, fits each
requested model on the rows whose label falls before the split date, and
scores one-step-ahead predictions on both sides of the split.  Scaled
errors are comparable across models; predictions are also mapped back to
original units against the actual previous value.
"""

from __future__ import annotations

import hashlib
import inspect
import os
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from . import baselines, optimize, pqc, vqls
from .linsys import (
    Scaler,
    TimeSeries,
    WindowSystem,
    atomic_write,
    normal_equations,
    preprocess,
    write_predictions_csv,
    write_scaled_csv,
    write_trace_csv,
)

DEFAULT_SPLIT = date(2021, 9, 1)
DEFAULT_WINDOW = 12
VQLS_WINDOW = 4

KINDS = ("linear", "mlp", "pqc", "vqls")
_SOLVE = inspect.signature(vqls.solve).parameters


def subseed(seed: int, *names: str) -> int:
    """Deterministic named sub-stream of a master seed."""
    tag = "%d/%s" % (seed, "/".join(names))
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: a model kind plus its knobs.

    window 0 and max_iters 0 mean the kind's default; negative values, and
    restarts below 1, are rejected. The window is 12, except 4 for the
    variational solver, whose window is its matrix dimension and must be a
    power of two from 2 to 64. max_iters is the circuit model's optimizer
    iteration cap, the variational solver's cost-evaluation cap per restart,
    or the MLP's epoch count. Its default, and those of optimizer (one of
    optimize.METHODS) and restarts, are the trainer's own. restarts is the
    variational solver's number of random starts. The circuit model's window
    is its qubit count, at most pqc.MAX_QUBITS.
    """

    kind: str
    window: int = 0
    optimizer: str = pqc.TrainConfig.optimizer
    max_iters: int = 0
    restarts: int = _SOLVE["restarts"].default

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown model kind %r (choose from %s)"
                             % (self.kind, ", ".join(KINDS)))
        if self.window == 0:
            object.__setattr__(
                self, "window",
                VQLS_WINDOW if self.kind == "vqls" else DEFAULT_WINDOW)
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.kind == "vqls" and self.window not in (2, 4, 8, 16, 32, 64):
            raise ValueError("vqls window must be a power of two from 2 to 64, "
                             "got %d" % self.window)
        if self.kind == "pqc" and self.window > pqc.MAX_QUBITS:
            raise ValueError("pqc window must be at most %d, got %d"
                             % (pqc.MAX_QUBITS, self.window))
        if self.optimizer not in optimize.METHODS:
            raise ValueError("optimizer must be one of %s, got %r"
                             % (", ".join(optimize.METHODS), self.optimizer))
        if self.max_iters < 0:
            raise ValueError("max_iters must be at least 0 (0 means the "
                             "default), got %d" % self.max_iters)
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1, got %d"
                             % self.restarts)
        if self.max_iters == 0:
            defaults = {"pqc": pqc.TrainConfig.max_iters,
                        "vqls": _SOLVE["max_iters"].default,
                        "mlp": baselines.DEFAULT_EPOCHS, "linear": 0}
            object.__setattr__(self, "max_iters", defaults[self.kind])


def default_specs() -> tuple[ModelSpec, ...]:
    return tuple(ModelSpec(kind=k) for k in KINDS)


@dataclass(frozen=True)
class ModelReport:
    name: str
    window: int
    train_mse: float
    test_mse: float
    num_train: int
    num_test: int
    predictions: TimeSeries
    actuals: TimeSeries
    trace: tuple[float, ...]
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    split_date: date
    seed: int
    scaler: Scaler
    scaled_diffs: TimeSeries
    reports: tuple[ModelReport, ...]

    def table(self) -> str:
        """Scaled one-step MSE per model, five decimal places."""
        name_width = max(len("Model"), max(len(r.name) for r in self.reports))
        lines = ["%-*s  %-10s  %-10s" % (name_width, "Model",
                                         "Train MSE", "Test MSE")]
        for r in self.reports:
            lines.append("%-*s  %-10.5f  %-10.5f"
                         % (name_width, r.name, r.train_mse, r.test_mse))
        return "\n".join(lines)

    def details(self) -> str:
        lines = []
        for r in self.reports:
            parts = []
            for key in ("condition_number", "final_cost", "error_bound",
                        "stop_reason", "residual", "converged", "evaluations",
                        "trained_parameters", "months_read", "theta_read"):
                if key in r.extras:
                    value = r.extras[key]
                    if isinstance(value, float):
                        text = "%.6g" % value
                    elif isinstance(value, tuple):
                        text = " ".join(map(str, value))
                    else:
                        text = str(value)
                    parts.append("%s %s" % (key.replace("_", " "), text))
            if parts:
                lines.append("%s: %s" % (r.name, ", ".join(parts)))
        return "\n".join(lines)


def fit(spec: ModelSpec, X: np.ndarray, y: np.ndarray, seed: int):
    """Train spec's model on windows X and labels y.

    Returns (model, trace, extras); every model has predict(X). The
    pipeline and the train commands both fit here, so a seed gives the same
    model from either. Sub-seeds are named by kind: initial weights come
    from subseed(seed, spec.kind, "init"), the solver's restarts from
    subseed(seed, spec.kind, "solver").
    """
    if spec.kind == "linear":
        return baselines.fit_linear(X, y), (), {}

    if spec.kind == "mlp":
        init = baselines.MlpModel.initialized(
            num_inputs=spec.window, seed=subseed(seed, spec.kind, "init"))
        model, trace = baselines.mlp_train(init, X, y, epochs=spec.max_iters)
        return model, tuple(trace), {"evaluations": len(trace), "model": model}

    if spec.kind == "pqc":
        init = pqc.PqcModel.initialized(
            num_qubits=spec.window, seed=subseed(seed, spec.kind, "init"))
        config = pqc.TrainConfig(optimizer=spec.optimizer,
                                 max_iters=spec.max_iters)
        model, result = pqc.train(init, X, y, config)
        plan = pqc.cone_plan(spec.window)
        return model, tuple(result.trace), {
            "stop_reason": result.message, "converged": result.converged,
            "evaluations": result.evaluations, "final_loss": result.fun,
            "trained_parameters": len(plan.live),
            "months_read": tuple("t-%d" % (spec.window - q)
                                 for q in plan.qubits),
            "theta_read": plan.live, "model": model}

    system = normal_equations(WindowSystem(X=X, y=y, window=spec.window))
    problem = vqls.VqlsProblem.from_system(system.A, system.b)
    result = vqls.solve(problem, optimizer=spec.optimizer,
                        seed=subseed(seed, spec.kind, "solver"),
                        restarts=spec.restarts, max_iters=spec.max_iters)
    # the solution is realigned toward the real axis; for these real
    # symmetric systems the leftover imaginary part is numerical noise
    model = baselines.LinearModel(np.asarray(result.w).real)
    return model, tuple(result.cost_trace), {
        "condition_number": result.condition_number,
        "final_cost": result.final_cost,
        "error_bound": result.error_bound,
        "stop_reason": result.stop_reason,
        "residual": result.residual,
        "converged": result.converged,
        "evaluations": result.evaluations,
        "weights": model.weights}


def run_pipeline(series: TimeSeries, specs=None,
                 split_date: date = DEFAULT_SPLIT, seed: int = 0,
                 out_dir: str | None = None) -> RunReport:
    specs = tuple(specs) if specs is not None else default_specs()
    if not specs:
        raise ValueError("no models to fit: the spec list is empty")
    if len({s.kind for s in specs}) != len(specs):
        raise ValueError("model kinds must be unique")

    prep = preprocess(series, split_date)
    reports = []
    for spec in specs:
        windows, train_rows = prep.windows(spec.window)
        if train_rows.all():
            raise ValueError("split %s leaves no test data for window %d"
                             % (split_date, spec.window))
        model, trace, extras = fit(spec, windows.X[train_rows],
                                   windows.y[train_rows], seed)
        preds = model.predict(windows.X)
        train_mse = baselines.mse(preds[train_rows], windows.y[train_rows])
        test_mse = baselines.mse(preds[~train_rows], windows.y[~train_rows])
        dates, actual, predicted = prep.to_units(preds, spec.window)
        reports.append(ModelReport(
            name=spec.kind, window=spec.window,
            train_mse=train_mse, test_mse=test_mse,
            num_train=int(train_rows.sum()),
            num_test=int((~train_rows).sum()),
            predictions=TimeSeries(dates, predicted),
            actuals=TimeSeries(dates, actual),
            trace=trace, extras=extras))

    run = RunReport(split_date=split_date, seed=seed, scaler=prep.scaler,
                    scaled_diffs=prep.scaled, reports=tuple(reports))
    if out_dir is not None:
        write_artifacts(run, out_dir)
    return run


def roll_predictions(predict_fn, values, window: int,
                     horizon: int) -> np.ndarray:
    """Feed each prediction back in to forecast `horizon` steps ahead.

    predict_fn maps a (1, window) array to a length-1 array of predictions,
    as every model's predict does.
    """
    values = np.asarray(values, dtype=float)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if values.size < window:
        raise ValueError("need at least %d history values, got %d"
                         % (window, values.size))
    buf = list(values[-window:])
    out = []
    for _ in range(horizon):
        nxt = float(np.asarray(predict_fn(np.array([buf[-window:]])))[0])
        out.append(nxt)
        buf.append(nxt)
    return np.array(out)


def write_artifacts(run: RunReport, out_dir: str) -> None:
    """CSV and text outputs; all writes are atomic renames."""
    os.makedirs(out_dir, exist_ok=True)
    write_scaled_csv(os.path.join(out_dir, "preprocessed.csv"),
                     run.scaled_diffs)
    for report in run.reports:
        write_predictions_csv(
            os.path.join(out_dir, "predictions_%s.csv" % report.name),
            report.predictions.dates, report.actuals.values,
            report.predictions.values)
        if report.trace:
            label = "cost" if report.name == "vqls" else "loss"
            write_trace_csv(
                os.path.join(out_dir, "trace_%s.csv" % report.name),
                report.trace, label)
    text = "split %s, seed %d, scale %r\n\n%s\n" % (
        run.split_date.isoformat(), run.seed, float(run.scaler.max_abs),
        run.table())
    details = run.details()
    if details:
        text += "\n" + details + "\n"
    with atomic_write(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(text)
