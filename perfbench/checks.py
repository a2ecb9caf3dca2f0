"""Correctness checks for the benchmark's workloads.

Each check takes plain outputs (arrays, paths, printed text) and returns a
list of failure messages, empty when the output is right. References are
computed here, from numpy and the oracle, never from a stored copy of the
program's earlier output and never from the program's own helpers.
"""

import csv
import os
import re
from dataclasses import dataclass

import numpy as np

import oracle

HALF_WIDTH = 0.25  # the scaled differences live in [-0.25, 0.25]


@dataclass
class Prepared:
    """The benchmark's own differencing, scaling and windowing of a series."""

    dates: list
    values: np.ndarray
    scaled: np.ndarray
    X: np.ndarray
    y: np.ndarray
    train: np.ndarray
    max_abs: float
    window: int

    def to_units(self, scaled_preds):
        """Predicted next values: previous actual value plus the difference."""
        return self.values[self.window:-1] + np.asarray(scaled_preds) * (self.max_abs / HALF_WIDTH)

    def to_scaled(self, unit_preds):
        return (np.asarray(unit_preds) - self.values[self.window:-1]) * (HALF_WIDTH / self.max_abs)


def prepare(dates, values, split, window):
    values = np.asarray(values, dtype=float)
    diffs = values[1:] - values[:-1]
    in_train = np.array([d < split for d in dates[1:]])
    max_abs = float(np.max(np.abs(diffs[in_train])))
    scaled = diffs * (HALF_WIDTH / max_abs)
    X = np.lib.stride_tricks.sliding_window_view(scaled, window)[:-1]
    train = np.array([d < split for d in dates[1 + window:]])
    return Prepared(list(dates), values, scaled, np.array(X), scaled[window:],
                    train, max_abs, window)


def _fail_if(condition, message):
    return [message] if condition else []


def check_linear(scaled_preds, prep, tol=1e-8):
    """Weights behind the predictions equal least squares on the training rows."""
    ref = np.linalg.lstsq(prep.X[prep.train], prep.y[prep.train], rcond=None)[0]
    got = np.linalg.lstsq(prep.X, scaled_preds, rcond=None)[0]
    err = float(np.max(np.abs(got - ref)))
    return _fail_if(not err <= tol, "linear weights differ from lstsq by %.3g" % err)


def normal_system(prep):
    """Normal equations of the training windows and their least-squares solution."""
    X, y = prep.X[prep.train], prep.y[prep.train]
    return X.T @ X, X.T @ y, np.linalg.lstsq(X, y, rcond=None)[0]


def solution_quality(w, a, b, reference):
    """(fidelity of w with the reference solution, relative residual of a w = b)."""
    w = np.asarray(w)
    fidelity = abs(np.vdot(reference, w)) ** 2 / (np.vdot(reference, reference).real
                                                   * np.vdot(w, w).real)
    residual = np.linalg.norm(a @ w - b) / np.linalg.norm(b)
    return float(fidelity), float(residual)


def check_solution(fidelity, residual, min_fidelity=0.99, max_residual=0.05):
    return _fail_if(not (fidelity >= min_fidelity and residual <= max_residual),
                    "solution fidelity %.6f, residual %.3g" % (fidelity, residual))


def check_loss_halved(initial, best):
    return _fail_if(not best <= 0.5 * initial,
                    "best loss %.6g is not half the initial %.6g" % (best, initial))


def check_pqc_predictions(scaled_preds, theta, windows, tol=1e-10):
    err = float(np.max(np.abs(np.asarray(scaled_preds) - oracle.pqc_predictions(theta, windows))))
    return _fail_if(not err <= tol, "circuit predictions differ from the oracle by %.3g" % err)


def check_pqc_loss(best, theta, X, y, tol=1e-10):
    ref = float(np.mean((oracle.pqc_predictions(theta, X) - y) ** 2))
    return _fail_if(not abs(ref - best) <= tol,
                    "reported loss %.12g, oracle loss at theta %.12g" % (best, ref))


def mlp_forward(params, X):
    a1 = np.maximum(X @ params["w1"].T + params["b1"], 0.0)
    a2 = np.maximum(a1 @ params["w2"].T + params["b2"], 0.0)
    return a2 @ params["w3"] + params["b3"]


def check_mlp(scaled_preds, params, X, trace, tol=1e-12):
    err = float(np.max(np.abs(np.asarray(scaled_preds) - mlp_forward(params, X))))
    return (_fail_if(not err <= tol, "network predictions differ from a forward pass by %.3g" % err)
            + _fail_if(not trace[-1] < trace[0], "last epoch loss is not below the first"))


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_artifacts(out_dir, name, prep, trace_len):
    """Every artifact of one model exists, with one row per window (and per
    difference, per evaluation)."""
    expected = {"preprocessed.csv": len(prep.scaled),
                "predictions_%s.csv" % name: len(prep.X),
                "report.txt": None}
    if trace_len:
        expected["trace_%s.csv" % name] = trace_len
    errors = []
    for fname, rows in expected.items():
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path):
            errors.append("missing artifact %s" % fname)
        elif rows is not None and len(_csv_rows(path)) != rows:
            errors.append("%s has %d rows, expected %d" % (fname, len(_csv_rows(path)), rows))
    return errors


ROUNDING = 0.005 + 1e-6  # a value printed with %.2f, plus float error at 1e8


def check_applied_csv(path, prep, expected_units):
    """Written predictions equal the expected values to the CSV's rounding."""
    if not os.path.isfile(path):
        return ["missing predictions file %s" % path]
    rows = _csv_rows(path)
    want_dates = [d.isoformat() for d in prep.dates[prep.window + 1:]]
    if [r[0] for r in rows] != want_dates:
        return ["predictions file dates do not match the series"]
    err = float(np.max(np.abs(np.array([float(r[2]) for r in rows]) - expected_units)))
    return _fail_if(not err <= ROUNDING, "applied predictions off by %.3g" % err)


HORIZON_LINE = re.compile(r"^(\d{4}-\d{2}-\d{2}) (-?\d+\.\d{2})$")


def check_horizon(stdout, expected_units, horizon=24):
    """Exactly `horizon` forecast lines, each equal to the expected value."""
    values = [float(m.group(2)) for m in map(HORIZON_LINE.match, stdout.splitlines()) if m]
    if len(values) != horizon:
        return ["%d horizon lines printed, expected %d" % (len(values), horizon)]
    err = float(np.max(np.abs(np.array(values) - expected_units)))
    return _fail_if(not err <= ROUNDING, "horizon forecast off by %.3g" % err)


def oracle_roll(theta, scaled, window, horizon):
    """Recursive forecast with the oracle: feed each prediction back in."""
    buf = list(scaled[-window:])
    for _ in range(horizon):
        buf.append(float(oracle.pqc_predictions(theta, [buf[-window:]])[0]))
    return np.array(buf[window:])


def check_hadamard(estimated_cost, theta, a, b, layers, trace, tol=1e-10):
    ref = oracle.vqls_cost(theta, a, b, layers)
    return (_fail_if(not abs(estimated_cost - ref) <= tol,
                     "Hadamard cost %.12g, analytic cost %.12g" % (estimated_cost, ref))
            + _fail_if(not min(trace) < trace[0], "best cost is not below the starting cost"))


def check_decomposition(matrix, terms, tol=1e-10):
    """terms: (coefficient, label) pairs; rebuilt with the oracle's Paulis."""
    rebuilt = sum(c * oracle.pauli_matrix(label) for c, label in terms)
    err = float(np.max(np.abs(rebuilt - matrix)))
    return _fail_if(not err <= tol, "Pauli terms rebuild the matrix to %.3g" % err)
