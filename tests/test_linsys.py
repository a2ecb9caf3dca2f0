"""Preprocessing and normal-equation tests with hand-computed oracles."""

import math
from datetime import date

import numpy as np
import pytest

from qforecast.linsys import (NormalSystem, Scaler, TimeSeries, add_months,
                              build_windows, condition_number, difference,
                              fit_scaler, invert_difference, normal_equations,
                              predict_next, preprocess, read_series_csv,
                              solve_classical, split_mask, write_series_csv)
from qforecast.pipeline import roll_predictions


def monthly(values, start=date(2020, 1, 1)):
    dates = tuple(add_months(start, i) for i in range(len(values)))
    return TimeSeries(dates, np.array(values, dtype=float))


class TestTimeSeries:
    def test_rejects_date_gap(self):
        with pytest.raises(ValueError):
            TimeSeries((date(2020, 1, 1), date(2020, 3, 1)), np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries((date(2020, 1, 1),), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            monthly([1.0, math.nan, 2.0])

    def test_year_boundary(self):
        ts = monthly([1.0, 2.0], start=date(2020, 12, 1))
        assert ts.dates[1] == date(2021, 1, 1)


class TestDifference:
    def test_values_and_dates(self):
        ts = monthly([10.0, 12.0, 15.0])
        d = difference(ts)
        assert np.allclose(d.values, [2.0, 3.0])
        assert d.dates == ts.dates[1:]

    def test_invert_excludes_anchor(self):
        d = monthly([2.0, 3.0], start=date(2020, 2, 1))
        out = invert_difference(d, anchor=10.0)
        assert np.allclose(out.values, [12.0, 15.0])
        assert out.dates == d.dates

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ts = monthly(list(rng.normal(size=30)))
        back = invert_difference(difference(ts), anchor=float(ts.values[0]))
        assert np.max(np.abs(back.values - ts.values[1:])) <= 1e-12
        assert back.dates == ts.dates[1:]


class TestScaler:
    def test_example(self):
        s = fit_scaler([2.0, -4.0])
        assert s.max_abs == 4.0
        assert np.allclose(s.apply([2.0, -4.0]), [0.125, -0.25])

    def test_max_abs_hits_half_width(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=50) * 3e5
        s = fit_scaler(vals)
        scaled = s.apply(vals)
        assert np.max(np.abs(scaled)) == pytest.approx(0.25, abs=1e-15)

    def test_apply_invert_round_trip(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=40) * 1e6
        s = fit_scaler(vals)
        assert np.max(np.abs(s.invert(s.apply(vals)) - vals)) <= 1e-9 * np.max(
            np.abs(vals))

    def test_out_of_sample_values_may_exceed_bound(self):
        s = fit_scaler([1.0])
        assert s.apply([2.0])[0] == pytest.approx(0.5)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            fit_scaler([0.0, 0.0])


class TestWindows:
    def test_example_rows(self):
        ws = build_windows([1.0, 2.0, 3.0, 4.0, 5.0], window=2)
        assert np.allclose(ws.X, [[1, 2], [2, 3], [3, 4]])
        assert np.allclose(ws.y, [3, 4, 5])

    def test_window_count(self):
        ws = build_windows(np.arange(20.0), window=12)
        assert ws.X.shape == (8, 12)
        assert ws.y.size == 8

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            build_windows([1.0, 2.0], window=2)


class TestNormalEquations:
    def test_example(self):
        ws = build_windows([1.0, 2.0, 3.0, 4.0, 5.0], window=2)
        ns = normal_equations(ws)
        assert np.allclose(ns.A, [[14, 20], [20, 29]])
        assert np.allclose(ns.b, [26, 38])

    def test_a_is_exactly_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        ws = build_windows(rng.normal(size=30), window=4)
        ns = normal_equations(ws)
        assert np.array_equal(ns.A, ns.A.T)
        assert np.min(np.linalg.eigvalsh(ns.A)) >= -1e-10


class TestSolveClassical:
    def test_identity_system(self):
        w = solve_classical(NormalSystem(A=np.eye(3), b=np.array([1.0, 2.0, 3.0])))
        assert np.allclose(w, [1, 2, 3], atol=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(30, 5))
            y = rng.normal(size=30)
            ns = NormalSystem(A=X.T @ X, b=X.T @ y)
            w = solve_classical(ns)
            want = np.linalg.lstsq(X, y, rcond=None)[0]
            assert np.max(np.abs(w - want)) <= 1e-8

    def test_singular_system_returns_min_norm(self):
        # A = diag(1, 0): solution must not blow up, second entry 0
        ns = NormalSystem(A=np.diag([1.0, 0.0]), b=np.array([2.0, 0.0]))
        w = solve_classical(ns)
        assert np.allclose(w, [2.0, 0.0], atol=1e-12)

    def test_geometric_series_prediction_is_exact(self):
        # rank-1 system: min-norm solution still predicts r**m exactly
        for r in (1.1, 0.9):
            values = r ** np.arange(12.0)
            ws = build_windows(values, window=4)
            w = solve_classical(normal_equations(ws))
            pred = predict_next(w, values[-4:])
            assert pred == pytest.approx(r ** 12, rel=1e-8)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_hilbert_4x4(self):
        h = np.array([[1 / (i + j + 1) for j in range(4)] for i in range(4)])
        assert condition_number(h) == pytest.approx(1.5514e4, rel=0.01)

    def test_singular_is_infinite(self):
        assert condition_number(np.zeros((3, 3))) == math.inf
        assert condition_number(np.diag([1.0, 0.0])) == math.inf

    def test_complex_hermitian(self):
        # eigenvalues 1 and 3; the real part alone would be 2 * identity
        h = np.array([[2.0, 1j], [-1j, 2.0]])
        assert condition_number(h) == pytest.approx(3.0)


class TestForecast:
    def test_predict_next_dot(self):
        assert predict_next([0.5, 0.5], [2.0, 4.0]) == pytest.approx(3.0)

    def test_predict_next_shape_check(self):
        with pytest.raises(ValueError):
            predict_next([1.0], [1.0, 2.0])

    def test_recursive_feeds_back(self):
        # weights pick the last value: constant continuation
        w = np.array([0.0, 1.0])
        out = roll_predictions(lambda X: X @ w, [1.0, 2.0, 3.0], 2, 3)
        assert np.allclose(out, [3.0, 3.0, 3.0])

    def test_recursive_horizon_one_matches_predict_next(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=4)
        hist = rng.normal(size=10)
        got = roll_predictions(lambda X: X @ w, hist, 4, 1)
        assert got[0] == pytest.approx(predict_next(w, hist[-4:]))

    def test_geometric_recursive_continuation(self):
        r = 1.05
        values = r ** np.arange(14.0)
        w = solve_classical(normal_equations(build_windows(values, window=4)))
        out = roll_predictions(lambda X: X @ w, values, 4, 3)
        assert np.allclose(out, [r ** 14, r ** 15, r ** 16], rtol=1e-6)


class TestSplitMask:
    def test_strictly_before(self):
        dates = (date(2021, 8, 1), date(2021, 9, 1), date(2021, 10, 1))
        mask = split_mask(dates, date(2021, 9, 1))
        assert list(mask) == [True, False, False]


class TestPreprocess:
    def test_scaled_windows_and_units(self):
        series = monthly([10.0, 12.0, 11.0, 15.0, 14.0, 20.0, 18.0])
        prep = preprocess(series, date(2020, 5, 1))
        # differences 2, -1, 4, -1, 6, -2; the first three precede the split
        assert prep.scaler.max_abs == 4.0
        assert list(prep.train) == [True] * 3 + [False] * 3
        windows, train_rows = prep.windows(2)
        assert np.allclose(windows.y, [0.25, -0.0625, 0.375, -0.125])
        assert list(train_rows) == [True, False, False, False]
        # exact scaled labels map back to the actual values
        dates, actual, predicted = prep.to_units(windows.y, 2)
        assert dates == series.dates[3:]
        assert np.array_equal(actual, [15.0, 14.0, 20.0, 18.0])
        assert np.allclose(predicted, actual)

    def test_rejects_splits_without_training_data(self):
        series = monthly([10.0, 12.0, 11.0, 15.0, 14.0])
        with pytest.raises(ValueError, match="before the split"):
            preprocess(series, date(2020, 1, 1))
        with pytest.raises(ValueError, match="training"):
            preprocess(series, date(2020, 3, 1)).windows(2)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ts = monthly([1234567.89, 2345678.90, 1111111.11])
        path = tmp_path / "series.csv"
        write_series_csv(path, ts)
        back = read_series_csv(path)
        assert back.dates == ts.dates
        assert np.allclose(back.values, ts.values, atol=0.01)

    def test_header_written(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, monthly([1.0, 2.0]))
        assert path.read_text().splitlines()[0] == "Date,Sales"

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Date,Sales\n2020-01-01,10\nnot-a-date,20\n")
        with pytest.raises(ValueError, match=":3:"):
            read_series_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2020-01-01,10\n")
        with pytest.raises(ValueError, match="header"):
            read_series_csv(path)

    def test_named_value_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("Date,Value\n2020-01-01,1.5\n2020-02-01,2.5\n")
        ts = read_series_csv(path, value_column="Value")
        assert np.allclose(ts.values, [1.5, 2.5])
