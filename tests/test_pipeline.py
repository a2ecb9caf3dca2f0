import filecmp
import math
import os
from datetime import date

import numpy as np
import pytest

from qforecast import baselines, pqc
from qforecast.datagen import GeneratorConfig, generate, trending_series
from qforecast.linsys import (WindowSystem, normal_equations, preprocess,
                              read_series_csv, solve_classical)
from qforecast.pipeline import (
    KINDS,
    ModelSpec,
    default_specs,
    fit,
    roll_predictions,
    run_pipeline,
    subseed,
)

SPLIT = date(2021, 9, 1)


def small_series(num_months=40, seed=0, noise=1.2e5):
    return generate(GeneratorConfig(num_months=num_months, seed=seed,
                                    noise_std=noise))


class TestSubseed:
    def test_deterministic(self):
        assert subseed(3, "a", "b") == subseed(3, "a", "b")

    def test_name_sensitive(self):
        assert subseed(3, "a") != subseed(3, "b")

    def test_seed_sensitive(self):
        assert subseed(1, "a") != subseed(2, "a")

    def test_in_rng_range(self):
        s = subseed(0, "model", "init")
        assert 0 <= s < 2 ** 64


class TestModelSpec:
    def test_window_defaults(self):
        assert ModelSpec(kind="linear").window == 12
        assert ModelSpec(kind="mlp").window == 12
        assert ModelSpec(kind="pqc").window == 12
        assert ModelSpec(kind="vqls").window == 4

    def test_max_iter_defaults(self):
        assert ModelSpec(kind="pqc").max_iters == 300
        assert ModelSpec(kind="vqls").max_iters == 2000
        assert ModelSpec(kind="mlp").max_iters == 2000

    def test_name_defaults_to_kind(self):
        assert ModelSpec(kind="mlp").name == "mlp"
        assert ModelSpec(kind="mlp", name="net").name == "net"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind 'svm' "
                                             r"\(choose from linear, mlp, pqc, vqls\)"):
            ModelSpec(kind="svm")

    def test_negative_window(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="linear", window=-3)

    def test_bad_vqls_window_or_optimizer_fails_at_construction(self):
        # checked in the spec, so run_pipeline fails before any model trains
        for window in (1, 3, 6, 128):
            with pytest.raises(ValueError, match="power of two"):
                ModelSpec(kind="vqls", window=window)
        for kind in KINDS:
            with pytest.raises(ValueError, match="optimizer"):
                ModelSpec(kind=kind, optimizer="adam")
        assert ModelSpec(kind="vqls", window=64).window == 64
        assert ModelSpec(kind="pqc", optimizer="lbfgs").optimizer == "lbfgs"

    def test_pqc_window_too_wide_to_simulate_fails_at_construction(self):
        # a 30-qubit state would need 16 GiB; the spec refuses it before
        # any model of the run trains
        for window in (pqc.MAX_QUBITS + 1, 30):
            with pytest.raises(ValueError, match="pqc window must be at most 16"):
                ModelSpec(kind="pqc", window=window)
        assert ModelSpec(kind="pqc", window=pqc.MAX_QUBITS).window == 16
        for kind in ("linear", "mlp"):
            assert ModelSpec(kind=kind, window=30).window == 30

    def test_negative_budget_or_no_restarts_fails_at_construction(self):
        # checked in the spec, so run_pipeline fails before any model trains
        for kind in KINDS:
            with pytest.raises(ValueError, match="max_iters must be at least 0"):
                ModelSpec(kind=kind, max_iters=-1)
            for restarts in (0, -2):
                with pytest.raises(ValueError, match="restarts must be at least 1"):
                    ModelSpec(kind=kind, restarts=restarts)
        assert ModelSpec(kind="vqls", restarts=1).restarts == 1

    def test_default_specs_cover_all_kinds(self):
        kinds = [s.kind for s in default_specs()]
        assert kinds == ["linear", "mlp", "pqc", "vqls"]


class TestRunPipelineLinear:
    def test_report_structure(self):
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT)
        assert len(run.reports) == 1
        r = run.reports[0]
        assert r.kind == "linear"
        assert np.isfinite(r.train_mse) and np.isfinite(r.test_mse)
        assert r.trace == ()
        assert len(r.predictions) == len(r.actuals)

    def test_split_row_counts(self):
        # 40 months from 2019-01; diffs dated 2019-02..2022-04 (39 of them),
        # window 12 labels start 2020-02; strictly-before-split training
        # labels run 2020-02..2021-08, 19 rows, leaving 8 test rows
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT)
        r = run.reports[0]
        assert r.num_train == 19
        assert r.num_test == 8
        assert len(r.predictions) == 27

    def test_prediction_dates_follow_windows(self):
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="linear", window=6)],
                           split_date=SPLIT)
        r = run.reports[0]
        # first label needs 6 diffs of history; diffs start at month 2
        assert r.predictions.dates[0] == date(2019, 8, 1)
        assert r.predictions.dates[-1] == series.dates[-1]
        np.testing.assert_array_equal(r.actuals.values,
                                      series.values[7:])

    def test_constant_diffs_predicted_exactly(self):
        # noise-free linear trend: every scaled difference is identical, so
        # the least-squares fit reproduces the series to rounding
        series = trending_series(50.0, initial=5000.0, num_months=40)
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT)
        r = run.reports[0]
        assert r.train_mse < 1e-20
        assert r.test_mse < 1e-20
        np.testing.assert_allclose(r.predictions.values, r.actuals.values,
                                   rtol=1e-9)

    def test_scaled_diffs_hit_half_width(self):
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT)
        train = [v for d, v in zip(run.scaled_diffs.dates,
                                   run.scaled_diffs.values) if d < SPLIT]
        assert np.max(np.abs(train)) == pytest.approx(0.25)


class TestRunPipelineErrors:
    def test_split_before_data(self):
        series = small_series()
        with pytest.raises(ValueError, match="before the split"):
            run_pipeline(series, specs=[ModelSpec(kind="linear")],
                         split_date=date(2018, 1, 1))

    def test_split_after_data_leaves_no_test(self):
        series = small_series()
        with pytest.raises(ValueError, match="test"):
            run_pipeline(series, specs=[ModelSpec(kind="linear")],
                         split_date=date(2031, 1, 1))

    def test_split_too_early_for_window_leaves_no_training(self):
        series = small_series()
        with pytest.raises(ValueError, match="training"):
            run_pipeline(series, specs=[ModelSpec(kind="linear")],
                         split_date=date(2019, 6, 1))

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError, match="spec list is empty"):
            run_pipeline(small_series(), specs=[])

    def test_duplicate_names_rejected(self):
        series = small_series()
        with pytest.raises(ValueError, match="unique"):
            run_pipeline(series, specs=[ModelSpec(kind="linear"),
                                        ModelSpec(kind="mlp", name="linear")])


class TestRunPipelineModels:
    def test_mlp_trace_and_extras(self):
        series = small_series()
        run = run_pipeline(series,
                           specs=[ModelSpec(kind="mlp", max_iters=50)],
                           split_date=SPLIT)
        r = run.reports[0]
        assert len(r.trace) == 50
        assert r.extras["evaluations"] == 50
        assert r.trace[-1] < r.trace[0]

    def test_pqc_small_window(self):
        series = small_series()
        run = run_pipeline(series,
                           specs=[ModelSpec(kind="pqc", window=4,
                                            max_iters=40)],
                           split_date=SPLIT, seed=1)
        r = run.reports[0]
        assert len(r.trace) == r.extras["evaluations"]
        assert min(r.trace) <= r.trace[0]
        assert "converged" in r.extras
        assert np.isfinite(r.test_mse)

    def test_vqls_extras(self):
        series = small_series()
        run = run_pipeline(series,
                           specs=[ModelSpec(kind="vqls", max_iters=400,
                                            restarts=2)],
                           split_date=SPLIT, seed=0)
        r = run.reports[0]
        assert r.extras["condition_number"] > 1.0
        assert np.isfinite(r.extras["condition_number"])
        assert r.extras["residual"] >= 0.0
        assert r.extras["weights"].dtype.kind == "f"
        assert len(r.trace) == r.extras["evaluations"]
        assert r.extras["stop_reason"] in ("objective reached target",
                                           "evaluation budget exhausted",
                                           "trust radius below tolerance")
        assert r.extras["error_bound"] == pytest.approx(
            r.extras["condition_number"] * math.sqrt(max(r.extras["final_cost"], 0.0)),
            rel=1e-6)

    def test_vqls_agrees_with_linear_on_same_window(self):
        # both solve the same normal equations; the variational path should
        # land near the classical one on this well-conditioned system
        series = small_series()
        specs = [ModelSpec(kind="linear", window=4),
                 ModelSpec(kind="vqls")]
        run = run_pipeline(series, specs=specs, split_date=SPLIT, seed=0)
        lin, vq = run.reports
        assert vq.extras["converged"]
        assert vq.train_mse == pytest.approx(lin.train_mse, abs=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vqls_test_mse_equals_exact_least_squares(self, seed):
        # the default series and split: the certified solve moves the
        # forecast's test MSE by about 1e-6 from the exact solution's
        series = generate(GeneratorConfig(seed=seed))
        run = run_pipeline(series, specs=[ModelSpec(kind="vqls")], seed=seed)
        r = run.reports[0]
        windows, train = preprocess(series, run.split_date).windows(r.window)
        system = WindowSystem(X=windows.X[train], y=windows.y[train], window=r.window)
        w = solve_classical(normal_equations(system))
        exact = baselines.mse(windows.X[~train] @ w, windows.y[~train])
        assert abs(r.test_mse - exact) <= 1e-5


class TestFit:
    SPECS = (ModelSpec(kind="linear"),
             ModelSpec(kind="mlp", max_iters=30),
             ModelSpec(kind="pqc", window=4, max_iters=20),
             ModelSpec(kind="vqls", max_iters=200, restarts=1))

    @pytest.mark.parametrize("spec", SPECS, ids=KINDS)
    def test_run_pipeline_predicts_with_the_fitted_model(self, spec):
        series = small_series()
        report = run_pipeline(series, specs=[spec], split_date=SPLIT,
                              seed=2).reports[0]
        prep = preprocess(series, SPLIT)
        windows, rows = prep.windows(spec.window)
        model, trace, _ = fit(spec, windows.X[rows], windows.y[rows], 2)
        preds = model.predict(windows.X)
        np.testing.assert_array_equal(
            prep.to_units(preds, spec.window)[2], report.predictions.values)
        assert report.train_mse == baselines.mse(preds[rows], windows.y[rows])
        assert report.trace == trace
        if spec.kind == "mlp":
            np.testing.assert_array_equal(
                preds, baselines.mlp_predict(model, windows.X))
        if spec.kind == "pqc":
            np.testing.assert_array_equal(
                preds, pqc.predict_batch(model, windows.X))
        if spec.kind == "vqls":
            assert isinstance(model, baselines.LinearModel)
            np.testing.assert_array_equal(report.extras["weights"],
                                          model.weights)


class TestRunReportText:
    def test_table_five_decimals(self):
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT)
        lines = run.table().splitlines()
        assert lines[0].startswith("Model")
        assert "Train MSE" in lines[0] and "Test MSE" in lines[0]
        fields = lines[1].split()
        assert fields[0] == "linear"
        # fixed-point, exactly five decimal places
        assert len(fields[1].split(".")[1]) == 5
        assert len(fields[2].split(".")[1]) == 5

    def test_details_mention_condition_number(self):
        series = small_series()
        run = run_pipeline(series,
                           specs=[ModelSpec(kind="vqls", max_iters=300,
                                            restarts=1)],
                           split_date=SPLIT)
        details = run.details()
        assert "condition number" in details
        # the certificate sits next to the cost it comes from
        assert ", error bound " in details.split("final cost ")[1]
        assert "stop reason " in details

    def test_details_say_what_the_circuit_reads_and_trains(self):
        series = small_series()
        run = run_pipeline(series, specs=[ModelSpec(kind="pqc", max_iters=5)],
                           split_date=SPLIT)
        extras = run.reports[0].extras
        assert extras["stop_reason"] == "iteration limit reached"
        assert extras["trained_parameters"] == 6
        assert run.details() == (
            "pqc: stop reason iteration limit reached, converged False, "
            "evaluations %d, trained parameters 6, months read t-12 t-11 "
            "t-2 t-1, theta read 0 1 22 23 24 25" % extras["evaluations"])


class TestArtifacts:
    def test_files_written(self, tmp_path):
        series = small_series()
        out = str(tmp_path / "run")
        run_pipeline(series, specs=[ModelSpec(kind="linear"),
                                    ModelSpec(kind="mlp", max_iters=30)],
                     split_date=SPLIT, out_dir=out)
        names = sorted(os.listdir(out))
        assert names == ["predictions_linear.csv", "predictions_mlp.csv",
                         "preprocessed.csv", "report.txt", "trace_mlp.csv"]

    def test_preprocessed_roundtrip(self, tmp_path):
        series = small_series()
        out = str(tmp_path / "run")
        run = run_pipeline(series, specs=[ModelSpec(kind="linear")],
                           split_date=SPLIT, out_dir=out)
        loaded = read_series_csv(os.path.join(out, "preprocessed.csv"),
                                 value_column="Value")
        np.testing.assert_array_equal(loaded.values, run.scaled_diffs.values)
        assert loaded.dates == run.scaled_diffs.dates

    def test_predictions_format(self, tmp_path):
        series = small_series()
        out = str(tmp_path / "run")
        run_pipeline(series, specs=[ModelSpec(kind="linear")],
                     split_date=SPLIT, out_dir=out)
        with open(os.path.join(out, "predictions_linear.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "Date,Actual,Predicted"
        first = lines[1].split(",")
        date.fromisoformat(first[0])
        assert len(first[1].split(".")[1]) == 2

    def test_trace_format(self, tmp_path):
        series = small_series()
        out = str(tmp_path / "run")
        run = run_pipeline(series, specs=[ModelSpec(kind="mlp",
                                                    max_iters=20)],
                           split_date=SPLIT, out_dir=out)
        with open(os.path.join(out, "trace_mlp.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 21
        assert float(lines[1].split(",")[1]) == run.reports[0].trace[0]

    def test_byte_identical_reruns(self, tmp_path):
        series = small_series()
        specs = [ModelSpec(kind="linear"),
                 ModelSpec(kind="mlp", max_iters=40)]
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            run_pipeline(series, specs=specs, split_date=SPLIT, seed=7,
                         out_dir=d)
        names = sorted(os.listdir(dirs[0]))
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                                   shallow=False)
        assert mismatch == [] and errors == []
        assert match == names

    def test_different_seed_changes_artifacts(self, tmp_path):
        series = small_series()
        specs = [ModelSpec(kind="mlp", max_iters=40)]
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d, s in zip(dirs, (1, 2)):
            run_pipeline(series, specs=specs, split_date=SPLIT, seed=s,
                         out_dir=d)
        with open(os.path.join(dirs[0], "trace_mlp.csv")) as fh:
            a = fh.read()
        with open(os.path.join(dirs[1], "trace_mlp.csv")) as fh:
            b = fh.read()
        assert a != b


class TestRollPredictions:
    def test_matches_weight_based_roll(self):
        # feeding predictions back through a weight vector must agree with
        # the same recursion written out by hand
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        history = rng.normal(size=10)
        rolled = roll_predictions(lambda X: X @ w, history, 4, 5)
        buf = list(history)
        for _ in range(5):
            buf.append(float(w @ np.array(buf[-4:])))
        np.testing.assert_allclose(rolled, buf[-5:], atol=1e-12)

    def test_constant_fixed_point(self):
        # a model that always predicts the mean of its window keeps a
        # constant history constant
        rolled = roll_predictions(lambda X: X.mean(axis=1),
                                  np.full(6, 2.5), 3, 4)
        np.testing.assert_allclose(rolled, 2.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            roll_predictions(lambda X: X.sum(axis=1), np.zeros(5), 3, 0)
        with pytest.raises(ValueError):
            roll_predictions(lambda X: X.sum(axis=1), np.zeros(2), 3, 1)
