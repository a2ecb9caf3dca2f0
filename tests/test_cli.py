import inspect
import os
from datetime import date

import numpy as np
import pytest

from qforecast import baselines, pqc, vqls
from qforecast.modelfile import save_model
from qforecast.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    build_parser,
    load_any_model,
    main,
    read_matrix_csv,
    read_vector_csv,
)
from qforecast.datagen import trending_series
from qforecast.linsys import preprocess, read_series_csv, write_series_csv
from qforecast.pipeline import ModelSpec, fit

SPLIT = "2021-09-01"


@pytest.fixture
def sales_csv(tmp_path):
    path = str(tmp_path / "sales.csv")
    assert main(["generate", "--out", path, "--months", "48",
                 "--seed", "0"]) == EXIT_OK
    return path


@pytest.fixture
def trend_csv(tmp_path):
    series = trending_series(50.0, initial=5000.0, num_months=48)
    path = str(tmp_path / "trend.csv")
    write_series_csv(path, series)
    return path


def spd_system(tmp_path):
    a_path = str(tmp_path / "A.csv")
    b_path = str(tmp_path / "b.csv")
    with open(a_path, "w") as fh:
        fh.write("2.0,0.5\n0.5,1.5\n")
    with open(b_path, "w") as fh:
        fh.write("1.0\n0.5\n")
    return a_path, b_path


class TestReaders:
    def test_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_matrix_csv(str(path)),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            read_matrix_csv(str(path))

    def test_matrix_bad_token_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match=":2:"):
            read_matrix_csv(str(path))

    def test_vector(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.5\n\n-2\n")
        np.testing.assert_array_equal(read_vector_csv(str(path)),
                                      [1.5, -2.0])

    def test_vector_empty(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no rows"):
            read_vector_csv(str(path))

    def test_vector_rejects_a_second_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="2 values per line, expected one"):
            read_vector_csv(str(path))


class TestGenerate:
    def test_writes_series(self, sales_csv):
        series = read_series_csv(sales_csv)
        assert len(series) == 48
        assert series.dates[0] == date(2019, 1, 1)

    def test_deterministic_bytes(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("a.csv", "b.csv")]
        for p in paths:
            main(["generate", "--out", p, "--months", "30", "--seed", "5"])
        with open(paths[0], "rb") as fh:
            a = fh.read()
        with open(paths[1], "rb") as fh:
            b = fh.read()
        assert a == b

    def test_invalid_months(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x.csv"),
                     "--months", "1"])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err


class TestPreprocess:
    def test_scaled_output(self, sales_csv, tmp_path, capsys):
        out = str(tmp_path / "scaled.csv")
        assert main(["preprocess", sales_csv, "--out", out,
                     "--split", SPLIT]) == EXIT_OK
        scaled = read_series_csv(out, value_column="Value")
        assert len(scaled) == 47
        train = [v for d, v in zip(scaled.dates, scaled.values)
                 if d < date(2021, 9, 1)]
        assert np.max(np.abs(train)) == pytest.approx(0.25)
        assert "scale" in capsys.readouterr().out

    def test_missing_input(self, tmp_path, capsys):
        code = main(["preprocess", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_half_width_is_not_an_option(self, sales_csv, tmp_path, capsys):
        out = str(tmp_path / "scaled.csv")
        with pytest.raises(SystemExit) as info:
            main(["preprocess", sales_csv, "--out", out,
                  "--half-width", "0.5"])
        assert info.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --half-width" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTrainBaseline:
    def test_linear_then_forecast_exact_on_trend(self, trend_csv, tmp_path,
                                                 capsys):
        model_path = str(tmp_path / "lin.txt")
        assert main(["train-baseline", trend_csv, "--kind", "linear",
                     "--model-out", model_path, "--split", SPLIT]) == EXIT_OK
        kind, model = load_any_model(model_path)
        assert kind == "linear"
        assert model.weights.size == 12

        pred_path = str(tmp_path / "pred.csv")
        assert main(["forecast", trend_csv, "--model", model_path,
                     "--out", pred_path, "--split", SPLIT]) == EXIT_OK
        out = capsys.readouterr().out
        assert "test mse 0.00000" in out
        predicted = read_series_csv(pred_path, value_column="Predicted")
        actual = read_series_csv(pred_path, value_column="Actual")
        # constant differences make one-step predictions exact to the cent
        np.testing.assert_allclose(predicted.values, actual.values,
                                   atol=0.005)

    def test_mlp_persists_and_traces(self, sales_csv, tmp_path):
        model_path = str(tmp_path / "net.txt")
        trace_path = str(tmp_path / "trace.csv")
        assert main(["train-baseline", sales_csv, "--kind", "mlp",
                     "--model-out", model_path, "--trace-out", trace_path,
                     "--epochs", "40", "--split", SPLIT]) == EXIT_OK
        kind, model = load_any_model(model_path)
        assert kind == "mlp"
        assert isinstance(model, baselines.MlpModel)
        with open(trace_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 41

    def test_window_too_large(self, trend_csv, tmp_path, capsys):
        code = main(["train-baseline", trend_csv, "--kind", "linear",
                     "--model-out", str(tmp_path / "m.txt"),
                     "--window", "40", "--split", SPLIT])
        assert code == EXIT_INPUT_ERROR


class TestTrainPqc:
    def test_small_window_roundtrip(self, sales_csv, tmp_path, capsys):
        model_path = str(tmp_path / "circuit.txt")
        trace_path = str(tmp_path / "trace.csv")
        assert main(["train-pqc", sales_csv, "--model-out", model_path,
                     "--trace-out", trace_path, "--window", "4",
                     "--max-iters", "30", "--split", SPLIT]) == EXIT_OK
        kind, model = load_any_model(model_path)
        assert kind == "pqc"
        assert isinstance(model, pqc.PqcModel)
        assert model.num_qubits == 4
        out = capsys.readouterr().out
        assert "loss" in out and "converged" in out
        with open(trace_path) as fh:
            assert fh.readline().strip() == "iteration,loss"


class TestOneFitPath:
    """The train commands fit through pipeline.fit with the same sub-seeds."""

    @pytest.mark.parametrize("argv, spec", [
        (["train-pqc", "--window", "4", "--max-iters", "30"],
         ModelSpec("pqc", window=4, max_iters=30)),
        (["train-baseline", "--kind", "mlp", "--epochs", "40"],
         ModelSpec("mlp", max_iters=40)),
        (["train-baseline", "--kind", "linear"], ModelSpec("linear")),
    ], ids=["pqc", "mlp", "linear"])
    def test_model_file_equals_fit(self, sales_csv, tmp_path, argv, spec):
        cli_path, fit_path = str(tmp_path / "cli.txt"), str(tmp_path / "fit.txt")
        assert main([argv[0], sales_csv, *argv[1:], "--seed", "3",
                     "--split", SPLIT, "--model-out", cli_path]) == EXIT_OK
        windows, rows = preprocess(read_series_csv(sales_csv),
                                   date.fromisoformat(SPLIT)).windows(spec.window)
        save_model(fit(spec, windows.X[rows], windows.y[rows], 3)[0], fit_path)
        with open(cli_path, "rb") as a, open(fit_path, "rb") as b:
            assert a.read() == b.read()

    def test_negative_budget_rejected_before_training(self, sales_csv,
                                                      tmp_path, capsys):
        model_path = str(tmp_path / "m.txt")
        for argv in (["train-pqc", "--window", "4", "--max-iters", "-1"],
                     ["train-baseline", "--kind", "mlp", "--epochs", "-3"]):
            assert main([argv[0], sales_csv, *argv[1:], "--split", SPLIT,
                         "--model-out", model_path]) == EXIT_INPUT_ERROR
            assert "max_iters must be at least 0" in capsys.readouterr().err
            assert not os.path.exists(model_path)


class TestSolveVqls:
    def test_solves_small_system(self, tmp_path, capsys):
        a_path, b_path = spd_system(tmp_path)
        code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                     "--restarts", "2", "--max-iters", "500"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "condition number" in out
        assert "converged True" in out
        values = {}
        for line in out.splitlines():
            if line.startswith("w["):
                idx = int(line[2])
                values[idx] = float(line.split("=")[1])
        # direct solve of the 2x2 system gives (5/11, 2/11)
        assert values[0] == pytest.approx(5 / 11, abs=1e-3)
        assert values[1] == pytest.approx(2 / 11, abs=1e-3)

    def test_prints_the_gradient_evaluations(self, tmp_path, capsys):
        a_path, b_path = spd_system(tmp_path)
        problem = vqls.VqlsProblem.from_system([[2.0, 0.5], [0.5, 1.5]], [1.0, 0.5])
        for optimizer in ("lbfgs", "cobyla"):
            main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                  "--optimizer", optimizer, "--restarts", "1", "--max-iters", "5"])
            res = vqls.solve(problem, optimizer=optimizer, restarts=1, max_iters=5)
            lines = capsys.readouterr().out.splitlines()
            assert "evaluations %d" % res.evaluations in lines
            assert "gradient evaluations %d" % res.gradient_evaluations in lines
            assert (res.gradient_evaluations > 0) == (optimizer == "lbfgs")

    def test_budget_exhaustion_exits_2(self, tmp_path, capsys):
        a_path, b_path = spd_system(tmp_path)
        code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                     "--restarts", "1", "--max-iters", "3"])
        assert code == EXIT_NOT_CONVERGED
        assert "converged False" in capsys.readouterr().out

    def test_no_restarts_fails_before_any_solve(self, tmp_path, capsys):
        a_path, b_path = spd_system(tmp_path)
        for restarts in ("0", "-3"):
            code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                         "--restarts", restarts])
            assert code == EXIT_INPUT_ERROR
            out, err = capsys.readouterr()
            assert out == ""
            assert "restarts must be at least 1, got %s" % restarts in err

    def test_bad_shots_fail_before_any_solve(self, tmp_path, capsys):
        # the analytic estimator ignores shots, but a bad count is still
        # refused before the first restart
        a_path, b_path = spd_system(tmp_path)
        for shots in ("0", "-5"):
            code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                         "--shots", shots])
            assert code == EXIT_INPUT_ERROR
            out, err = capsys.readouterr()
            assert out == ""
            assert "shots must be positive, got %s" % shots in err

    def test_hadamard_estimator_solves_128x128(self, tmp_path, capsys):
        a_path = str(tmp_path / "A.csv")
        b_path = str(tmp_path / "b.csv")
        np.savetxt(a_path, np.diag(np.arange(1.0, 129.0)), delimiter=",")
        np.savetxt(b_path, np.ones(128))
        code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                     "--estimator", "hadamard", "--restarts", "1",
                     "--max-iters", "20"])
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        out = capsys.readouterr().out
        assert "w[127] = " in out
        assert "evaluations 20" in out

    def test_zero_budget_names_the_value(self, tmp_path, capsys):
        a_path, b_path = spd_system(tmp_path)
        code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path,
                     "--max-iters", "0"])
        assert code == EXIT_INPUT_ERROR
        assert "max_evals must be at least 1, got 0" in capsys.readouterr().err

    def test_non_square_matrix(self, tmp_path, capsys):
        a_path = str(tmp_path / "A.csv")
        with open(a_path, "w") as fh:
            fh.write("1,2,3\n4,5,6\n")
        b_path = str(tmp_path / "b.csv")
        with open(b_path, "w") as fh:
            fh.write("1\n2\n")
        code = main(["solve-vqls", "--matrix", a_path, "--rhs", b_path])
        assert code == EXIT_INPUT_ERROR


class TestDecompose:
    def test_exact_expansion(self, tmp_path, capsys):
        a_path, _ = spd_system(tmp_path)
        assert main(["decompose", "--matrix", a_path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["1.75\tI", "0.5\tX", "0.25\tZ"]

    def test_non_hermitian_rejected(self, tmp_path, capsys):
        a_path = str(tmp_path / "A.csv")
        with open(a_path, "w") as fh:
            fh.write("1,2\n3,4\n")
        assert main(["decompose", "--matrix", a_path]) == EXIT_INPUT_ERROR


class TestForecastPipeline:
    def test_linear_only_table(self, sales_csv, capsys):
        assert main(["forecast", sales_csv, "--models", "linear",
                     "--split", SPLIT]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Model" in out and "linear" in out
        assert "Train MSE" in out

    def test_artifacts_directory(self, sales_csv, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main(["forecast", sales_csv, "--models", "linear,vqls",
                     "--vqls-iters", "400", "--vqls-restarts", "2",
                     "--split", SPLIT, "--out-dir", out_dir]) == EXIT_OK
        names = sorted(os.listdir(out_dir))
        assert "predictions_linear.csv" in names
        assert "predictions_vqls.csv" in names
        assert "report.txt" in names
        out = capsys.readouterr().out
        assert "condition number" in out

    def test_unknown_model_kind(self, sales_csv, capsys):
        assert main(["forecast", sales_csv, "--models", "magic",
                     "--split", SPLIT]) == EXIT_INPUT_ERROR
        assert "unknown model kind" in capsys.readouterr().err

    def test_bad_model_list_or_restarts_rejected(self, sales_csv, capsys):
        for argv, message in ((["--models", ""], "spec list is empty"),
                              (["--models", " , "], "spec list is empty"),
                              (["--models", "linear", "--vqls-restarts", "0"],
                               "restarts must be at least 1, got 0")):
            assert main(["forecast", sales_csv, "--split", SPLIT,
                         *argv]) == EXIT_INPUT_ERROR
            out, err = capsys.readouterr()
            assert message in err
            assert out == ""

    def test_saved_model_flags_need_model(self, sales_csv, tmp_path, capsys):
        out_path = str(tmp_path / "x.csv")
        for argv in (["--out", out_path], ["--horizon", "3"]):
            assert main(["forecast", sales_csv, "--models", "linear",
                         "--split", SPLIT, *argv]) == EXIT_INPUT_ERROR
            out, err = capsys.readouterr()
            assert "need --model" in err
            assert out == ""
        assert not os.path.exists(out_path)


class TestForecastSavedModel:
    def test_horizon_prints_future_months(self, trend_csv, tmp_path,
                                          capsys):
        model_path = str(tmp_path / "lin.txt")
        main(["train-baseline", trend_csv, "--kind", "linear",
              "--model-out", model_path, "--split", SPLIT])
        capsys.readouterr()
        assert main(["forecast", trend_csv, "--model", model_path,
                     "--horizon", "2", "--split", SPLIT]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        # 48 months from 2019-01 end at 2022-12; the next two follow
        future = [ln for ln in out if ln.startswith("202")]
        assert future[0].split()[0] == "2023-01-01"
        assert future[1].split()[0] == "2023-02-01"
        # trend of 50/month continues exactly
        assert float(future[0].split()[1]) == pytest.approx(
            5000.0 + 50.0 * 48, abs=0.01)

    def test_out_dir_rejected(self, trend_csv, tmp_path, capsys):
        model_path = str(tmp_path / "lin.txt")
        main(["train-baseline", trend_csv, "--kind", "linear",
              "--model-out", model_path, "--split", SPLIT])
        capsys.readouterr()
        out_dir = str(tmp_path / "run")
        assert main(["forecast", trend_csv, "--model", model_path,
                     "--out-dir", out_dir, "--split", SPLIT]) \
            == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert "--out-dir is for the pipeline" in err
        assert out == ""
        assert not os.path.exists(out_dir)

    def test_pqc_file_wider_than_the_qubit_cap(self, sales_csv, tmp_path,
                                                capsys):
        path = str(tmp_path / "wide.txt")
        with open(path, "w") as fh:
            fh.write("qforecast-model pqc 17\ntheta 68\n" + "0.0\n" * 68)
        assert main(["forecast", sales_csv, "--model", path,
                     "--split", SPLIT]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert path in err and "at most 16 qubits, got 17" in err
        assert out == ""

    def test_unrecognized_model_file(self, trend_csv, tmp_path, capsys):
        bogus = str(tmp_path / "model.txt")
        with open(bogus, "w") as fh:
            fh.write("something else\n1.0\n")
        assert main(["forecast", trend_csv, "--model", bogus,
                     "--split", SPLIT]) == EXIT_INPUT_ERROR


class TestEvaluate:
    def test_self_contained_csv(self, tmp_path, capsys):
        path = str(tmp_path / "pred.csv")
        with open(path, "w") as fh:
            fh.write("Date,Actual,Predicted\n"
                     "2021-01-01,100.0,110.0\n"
                     "2021-02-01,200.0,190.0\n")
        assert main(["evaluate", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mse 100.0" in out
        assert "rmse 10.0" in out
        assert "mae 10.0" in out
        # mean of 10% and 5% relative error
        assert "mape 7.5000%" in out

    def test_against_external_actuals(self, tmp_path, capsys):
        pred = str(tmp_path / "pred.csv")
        with open(pred, "w") as fh:
            fh.write("Date,Actual,Predicted\n2021-01-01,0.0,3.0\n"
                     "2021-02-01,0.0,4.0\n")
        actual = str(tmp_path / "act.csv")
        with open(actual, "w") as fh:
            fh.write("Date,Sales\n2021-01-01,3.0\n2021-02-01,8.0\n")
        assert main(["evaluate", pred, "--actuals", actual]) == EXIT_OK
        assert "mse 8.0" in capsys.readouterr().out

    def test_date_mismatch_named(self, tmp_path, capsys):
        pred = str(tmp_path / "pred.csv")
        with open(pred, "w") as fh:
            fh.write("Date,Actual,Predicted\n2021-01-01,1.0,1.0\n"
                     "2021-02-01,1.0,1.0\n")
        actual = str(tmp_path / "act.csv")
        with open(actual, "w") as fh:
            fh.write("Date,Sales\n2021-02-01,1.0\n2021-03-01,1.0\n")
        assert main(["evaluate", pred, "--actuals", actual]) \
            == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "2021-01-01" in err and "2021-02-01" in err


class TestArgumentErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == EXIT_INPUT_ERROR

    def test_bad_date_exits_1(self, sales_csv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["forecast", sales_csv, "--split", "not-a-date"])
        assert info.value.code == EXIT_INPUT_ERROR


class TestParserDefaults:
    def test_solver_defaults_are_their_owners(self):
        parser = build_parser()
        solve = inspect.signature(vqls.solve).parameters
        args = parser.parse_args(["solve-vqls", "--matrix", "A.csv", "--rhs", "b.csv"])
        for name in ("optimizer", "seed", "restarts", "max_iters", "estimator"):
            assert getattr(args, name) == solve[name].default, name
        args = parser.parse_args(["forecast", "series.csv"])
        assert args.vqls_restarts == ModelSpec.restarts
        args = parser.parse_args(["train-pqc", "series.csv", "--model-out", "m"])
        assert args.optimizer == ModelSpec.optimizer

    def test_defaults_follow_their_owners(self, monkeypatch):
        # a changed owner default reaches the parser without an edit there
        changed = {"optimizer": "lbfgs", "seed": 7, "restarts": 3,
                   "max_iters": 50, "estimator": "hadamard"}
        params = inspect.signature(vqls.solve).parameters.values()
        monkeypatch.setattr(vqls.solve, "__defaults__", tuple(
            changed.get(p.name, p.default) for p in params
            if p.default is not p.empty))
        monkeypatch.setattr(ModelSpec, "optimizer", "lbfgs")
        parser = build_parser()
        args = parser.parse_args(["solve-vqls", "--matrix", "A.csv", "--rhs", "b.csv"])
        assert {name: getattr(args, name) for name in changed} == changed
        args = parser.parse_args(["train-pqc", "series.csv", "--model-out", "m"])
        assert args.optimizer == "lbfgs"
