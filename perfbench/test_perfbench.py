"""Tests of the benchmark's oracle and checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

The oracle must agree with the simulator on random circuits, and every
check must pass the program's real output and reject a perturbed copy.
"""

import os
from datetime import date

import numpy as np
import pytest

from qforecast import baselines, datagen, pauli, pqc, qsim, vqls
from qforecast.pipeline import DEFAULT_SPLIT, ModelSpec, run_pipeline

import checks
import oracle
import workloads


def random_circuit(rng, n, length=40):
    circuit, gates = qsim.Circuit(n), []
    for _ in range(length):
        name = str(rng.choice(["rx", "ry", "rz", "h", "x"] + ["cnot"] * (n > 1)))
        if name == "cnot":
            qubits = tuple(int(q) for q in rng.choice(n, 2, replace=False))
            circuit.cnot(*qubits)
            gates.append((name, qubits, None))
        elif name in ("h", "x"):
            q = int(rng.integers(n))
            getattr(circuit, name)(q)
            gates.append((name, (q,), None))
        else:
            q, angle = int(rng.integers(n)), float(rng.uniform(-2 * np.pi, 2 * np.pi))
            getattr(circuit, name)(q, angle)
            gates.append((name, (q,), angle))
    return circuit, gates


def test_oracle_matches_run_circuit_on_random_circuits():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = 1 + trial % 6
        circuit, gates = random_circuit(rng, n)
        want = oracle.run_gates(n, gates)[0]
        assert np.max(np.abs(qsim.run_circuit(circuit).amplitudes - want)) < 1e-12


@pytest.mark.parametrize("k", [3, 4, 6])
def test_oracle_matches_pqc_and_vqls_costs(k):
    rng = np.random.default_rng(k)
    model = pqc.PqcModel.initialized(num_qubits=k, seed=k)
    model = model.with_theta(rng.uniform(-np.pi, np.pi, model.num_parameters))
    windows = rng.uniform(-0.25, 0.25, size=(9, k))
    assert np.max(np.abs(pqc.predict_batch(model, windows)
                         - oracle.pqc_predictions(model.theta, windows))) < 1e-12
    a = workloads.random_hermitian(rng, 4) + 6 * np.eye(4)
    b = rng.uniform(-1, 1, 4)
    theta = rng.uniform(0, 2 * np.pi, vqls.AnsatzSpec.default(2).num_parameters)
    got = vqls.cost(vqls.VqlsProblem.from_system(a, b), theta)
    assert abs(got - oracle.vqls_cost(theta, a, b, workloads.VqlsSystems.layers)) < 1e-12


@pytest.fixture(scope="module")
def prepared():
    series = datagen.generate(datagen.GeneratorConfig(seed=3))
    return series, checks.prepare(series.dates, series.values, DEFAULT_SPLIT, 12)


def test_linear_check_rejects_a_flipped_weight(prepared):
    _, p = prepared
    model = baselines.fit_linear(p.X[p.train], p.y[p.train])
    assert checks.check_linear(model.predict(p.X), p) == []
    flipped = model.weights.copy()
    flipped[3] = -flipped[3]
    assert checks.check_linear(p.X @ flipped, p)


def test_unit_mapping_inverts_the_pipeline(prepared):
    series, p = prepared
    report = run_pipeline(series, specs=[ModelSpec(kind="linear")]).reports[0]
    model = baselines.fit_linear(p.X[p.train], p.y[p.train])
    assert np.max(np.abs(p.to_scaled(report.predictions.values) - model.predict(p.X))) < 1e-12


def test_prediction_checks_reject_a_shift_of_1e_6(prepared):
    _, p = prepared
    rng = np.random.default_rng(0)
    windows = p.X[:5, :4]
    theta = rng.uniform(-np.pi, np.pi, 16)
    preds = pqc.predict_batch(pqc.PqcModel(theta=theta, num_qubits=4), windows)
    assert checks.check_pqc_predictions(preds, theta, windows) == []
    assert checks.check_pqc_predictions(preds + np.eye(5)[2] * 1e-6, theta, windows)
    loss = float(np.mean((preds - p.y[:5]) ** 2))
    assert checks.check_pqc_loss(loss, theta, windows, p.y[:5]) == []
    assert checks.check_pqc_loss(loss + 1e-6, theta, windows, p.y[:5])

    mlp = baselines.MlpModel.initialized(num_inputs=12, seed=1)
    mlp, trace = baselines.mlp_train(mlp, p.X[p.train], p.y[p.train], epochs=20)
    params = {k: getattr(mlp, k) for k in ("w1", "b1", "w2", "b2", "w3", "b3")}
    out = baselines.mlp_predict(mlp, p.X)
    assert checks.check_mlp(out, params, p.X, trace) == []
    assert checks.check_mlp(out + 1e-6, params, p.X, trace)
    assert checks.check_mlp(out, params, p.X, trace[::-1])


def test_loss_and_solution_checks_reject_bad_outputs(prepared):
    _, p = prepared
    assert checks.check_loss_halved(1.0, 0.5) == []
    assert checks.check_loss_halved(1.0, 0.51)
    p4 = checks.prepare(p.dates, p.values, DEFAULT_SPLIT, 4)
    a, b, w = checks.normal_system(p4)
    assert checks.check_solution(*checks.solution_quality(w, a, b, w)) == []
    assert checks.check_solution(*checks.solution_quality(-w, a, b, w))
    assert checks.check_solution(*checks.solution_quality(w * [1, -1, 1, 1], a, b, w))


def test_artifact_check_rejects_a_missing_file(prepared, tmp_path):
    series, p = prepared
    run = run_pipeline(series, specs=[ModelSpec(kind="mlp", max_iters=5)],
                       out_dir=str(tmp_path))
    trace_len = len(run.reports[0].trace)
    assert checks.check_artifacts(str(tmp_path), "mlp", p, trace_len) == []
    assert checks.check_artifacts(str(tmp_path), "mlp", p, trace_len + 1)
    os.remove(tmp_path / "predictions_mlp.csv")
    assert checks.check_artifacts(str(tmp_path), "mlp", p, trace_len)


def test_apply_checks_reject_wrong_rows_and_lines(prepared, tmp_path):
    _, p = prepared
    expected = p.to_units(np.linspace(-0.1, 0.1, len(p.X)))
    path = tmp_path / "preds.csv"

    def write(values):
        with open(path, "w") as fh:
            fh.write("Date,Actual,Predicted\n")
            for d, v in zip(p.dates[p.window + 1:], values):
                fh.write("%s,0.00,%.2f\n" % (d.isoformat(), v))

    write(expected)
    assert checks.check_applied_csv(str(path), p, expected) == []
    write(expected + np.eye(len(expected))[4] * 0.02)
    assert checks.check_applied_csv(str(path), p, expected)
    assert checks.check_applied_csv(str(tmp_path / "absent.csv"), p, expected)

    future = np.linspace(1e6, 2e6, 24)
    lines = "".join("%s %.2f\n" % (date(2030, 1 + i % 12, 1).isoformat(), v)
                    for i, v in enumerate(future))
    assert checks.check_horizon("loaded pqc model\n" + lines, future) == []
    assert checks.check_horizon(lines, future + 0.02)
    assert checks.check_horizon("\n".join(lines.splitlines()[:23]), future[:23])


def test_hadamard_and_decomposition_checks_reject_perturbations():
    rng = np.random.default_rng(5)
    a, b = workloads.easy_spd(rng)
    problem = vqls.VqlsProblem.from_system(a, b)
    theta = rng.uniform(0, 2 * np.pi, vqls.AnsatzSpec.default(2).num_parameters)
    estimated = vqls.cost(problem, theta, estimator="hadamard")
    layers = workloads.VqlsSystems.layers
    assert checks.check_hadamard(estimated, theta, a, b, layers, [0.5, 0.1]) == []
    assert checks.check_hadamard(estimated + 1e-8, theta, a, b, layers, [0.5, 0.1])
    assert checks.check_hadamard(estimated, theta, a, b, layers, [0.5, 0.6])

    matrix = workloads.random_hermitian(rng, 8)
    terms = [(c, s.label) for c, s in pauli.decompose(matrix).terms]
    assert checks.check_decomposition(matrix, terms) == []
    terms[3] = (terms[3][0] + 1e-9, terms[3][1])
    assert checks.check_decomposition(matrix, terms)
