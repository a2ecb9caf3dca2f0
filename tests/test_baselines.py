import os

import numpy as np
import pytest

from qforecast.baselines import (
    LEARNING_RATE,
    MOMENTUM,
    LinearModel,
    MlpModel,
    fit_linear,
    mlp_backward,
    mlp_forward,
    mlp_loss_gradient,
    mlp_predict,
    mlp_train,
    mse,
)
from qforecast.modelfile import load_any_model, save_model


def synthetic_windows(seed, n=54, m=12):
    """Window-style regression data with a learnable nonlinear component."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.25, 0.25, size=(n, m))
    w = rng.normal(size=m)
    y = X @ w + 2.0 * np.maximum(X[:, 0], 0.0) + 0.005 * rng.normal(size=n)
    return X, y


class TestLinearModel:
    def test_predict_is_dot_product(self):
        model = LinearModel(np.array([1.0, -2.0, 0.5]))
        out = model.predict(np.array([[2.0, 1.0, 4.0]]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(2.0 - 2.0 + 2.0)

    def test_weights_read_only(self):
        model = LinearModel(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            model.weights[0] = 9.0

    def test_rejects_matrix_weights(self):
        with pytest.raises(ValueError):
            LinearModel(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearModel(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="weights contain non-finite values"):
            LinearModel([bad, 1.0])


class TestFitLinear:
    def test_recovers_exact_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        w_true = np.array([0.7, -1.2, 0.0, 3.4, 0.05])
        model = fit_linear(X, X @ w_true)
        np.testing.assert_allclose(model.weights, w_true, atol=1e-10)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        model = fit_linear(X, y)
        oracle, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(model.weights, oracle, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(np.zeros((4, 3)), np.zeros(5))

    def test_one_dim_features_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(np.zeros(4), np.zeros(4))


class TestMse:
    def test_hand_value(self):
        assert mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(2.5)

    def test_zero_for_equal(self):
        v = np.array([3.0, -1.0, 0.5])
        assert mse(v, v) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse(np.array([]), np.array([]))


class TestMlpModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpModel(w1=np.zeros((3, 2)), b1=np.zeros(3),
                     w2=np.zeros((4, 5)), b2=np.zeros(4),
                     w3=np.zeros(4), b3=0.0)

    def test_bias_shape_validation(self):
        with pytest.raises(ValueError):
            MlpModel(w1=np.zeros((3, 2)), b1=np.zeros(2),
                     w2=np.zeros((3, 3)), b2=np.zeros(3),
                     w3=np.zeros(3), b3=0.0)

    def test_non_finite_rejected(self):
        w1 = np.zeros((2, 2))
        w1[0, 0] = np.nan
        with pytest.raises(ValueError):
            MlpModel(w1=w1, b1=np.zeros(2), w2=np.zeros((2, 2)),
                     b2=np.zeros(2), w3=np.zeros(2), b3=0.0)

    def test_fields_read_only(self):
        model = MlpModel.initialized(num_inputs=3, hidden=4, seed=0)
        with pytest.raises(ValueError):
            model.w1[0, 0] = 5.0

    def test_default_architecture(self):
        model = MlpModel.initialized(seed=0)
        assert model.w1.shape == (12, 12)
        assert model.w2.shape == (12, 12)
        assert model.w3.shape == (12,)
        assert model.num_inputs == 12
        # 12*12 + 12 + 12*12 + 12 + 12 + 1 trainable scalars
        total = (model.w1.size + model.b1.size + model.w2.size
                 + model.b2.size + model.w3.size + 1)
        assert total == 325

    def test_init_bounds_and_zero_biases(self):
        model = MlpModel.initialized(num_inputs=12, hidden=12, seed=5)
        bound = np.sqrt(6.0 / 24.0)
        assert np.all(np.abs(model.w1) <= bound)
        assert np.all(np.abs(model.w2) <= bound)
        assert np.all(np.abs(model.w3) <= np.sqrt(6.0 / 13.0))
        assert np.all(model.b1 == 0.0)
        assert np.all(model.b2 == 0.0)
        assert model.b3 == 0.0

    def test_init_deterministic(self):
        a = MlpModel.initialized(seed=42)
        b = MlpModel.initialized(seed=42)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w3, b.w3)

    def test_init_seed_sensitivity(self):
        a = MlpModel.initialized(seed=1)
        b = MlpModel.initialized(seed=2)
        assert not np.array_equal(a.w1, b.w1)


class TestForward:
    def test_hand_computed_network(self):
        model = MlpModel(
            w1=np.array([[1.0, 0.0], [0.0, 1.0]]), b1=np.zeros(2),
            w2=np.array([[1.0, 1.0], [0.0, 1.0]]), b2=np.array([0.5, -0.5]),
            w3=np.array([2.0, 1.0]), b3=0.25)
        out, (x, z1, a1, z2, a2) = mlp_forward(model, np.array([0.3, -0.2]))
        np.testing.assert_allclose(z1, [[0.3, -0.2]])
        np.testing.assert_allclose(a1, [[0.3, 0.0]])
        np.testing.assert_allclose(z2, [[0.8, -0.5]])
        np.testing.assert_allclose(a2, [[0.8, 0.0]])
        assert out[0] == pytest.approx(1.85)

    def test_batch_shape(self):
        model = MlpModel.initialized(num_inputs=4, hidden=3, seed=0)
        out = mlp_predict(model, np.zeros((7, 4)))
        assert out.shape == (7,)

    def test_zero_input_gives_bias_only(self):
        model = MlpModel.initialized(num_inputs=4, hidden=3, seed=1)
        out = mlp_predict(model, np.zeros((1, 4)))
        # zero biases and zero input collapse every layer to zero
        assert out[0] == pytest.approx(0.0)


def _pack(model):
    return np.concatenate([model.w1.ravel(), model.b1, model.w2.ravel(),
                           model.b2, model.w3, [model.b3]])


def _unpack(flat, n_in, h1, h2):
    pos = 0
    pieces = []
    for count in (h1 * n_in, h1, h2 * h1, h2, h2, 1):
        pieces.append(flat[pos:pos + count])
        pos += count
    return MlpModel(w1=pieces[0].reshape(h1, n_in), b1=pieces[1],
                    w2=pieces[2].reshape(h2, h1), b2=pieces[3],
                    w3=pieces[4], b3=pieces[5][0])


class TestBackward:
    def test_matches_finite_differences(self):
        # offsets keep pre-activations away from the ReLU kink so the
        # central-difference oracle is valid
        n_in, h1, h2 = 5, 4, 3
        rng = np.random.default_rng(7)
        model = MlpModel.initialized(num_inputs=n_in, hidden=h1, seed=7)
        model = MlpModel(w1=model.w1[:h1, :], b1=rng.normal(size=h1) * 0.3,
                         w2=rng.normal(size=(h2, h1)) * 0.5,
                         b2=rng.normal(size=h2) * 0.3,
                         w3=rng.normal(size=h2), b3=0.2)
        X = rng.uniform(-1.0, 1.0, size=(9, n_in))
        y = rng.normal(size=9)

        _, grads = mlp_loss_gradient(model, X, y)
        grad_flat = np.concatenate([grads["w1"].ravel(), grads["b1"],
                                    grads["w2"].ravel(), grads["b2"],
                                    grads["w3"], [grads["b3"]]])
        theta = _pack(model)
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            lu, _ = mlp_loss_gradient(_unpack(up, n_in, h1, h2), X, y)
            ld, _ = mlp_loss_gradient(_unpack(dn, n_in, h1, h2), X, y)
            fd[i] = (lu - ld) / (2 * h)
        np.testing.assert_allclose(grad_flat, fd, atol=1e-6)

    def test_relu_kink_uses_zero_subgradient(self):
        # one hidden unit sits exactly at zero pre-activation; its weight
        # gradient must vanish rather than take the right derivative
        model = MlpModel(w1=np.array([[1.0]]), b1=np.array([0.0]),
                         w2=np.array([[1.0]]), b2=np.array([0.0]),
                         w3=np.array([1.0]), b3=0.0)
        out, cache = mlp_forward(model, np.array([[0.0]]))
        grads = mlp_backward(model, cache, np.array([1.0]))
        assert grads["w1"][0, 0] == 0.0

    def test_loss_value_matches_mse(self):
        model = MlpModel.initialized(num_inputs=3, hidden=4, seed=2)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        loss, _ = mlp_loss_gradient(model, X, y)
        assert loss == pytest.approx(mse(mlp_predict(model, X), y))


class TestTrain:
    def test_loss_decreases(self):
        X, y = synthetic_windows(0)
        model = MlpModel.initialized(seed=0)
        trained, trace = mlp_train(model, X, y, epochs=200)
        assert len(trace) == 200
        assert trace[-1] < trace[0]
        assert mse(mlp_predict(trained, X), y) < trace[0]

    def test_deterministic(self):
        X, y = synthetic_windows(1)
        a, _ = mlp_train(MlpModel.initialized(seed=3), X, y, epochs=50)
        b, _ = mlp_train(MlpModel.initialized(seed=3), X, y, epochs=50)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w3, b.w3)
        assert a.b3 == b.b3

    def test_equals_the_loop_over_models(self):
        # oracle: each epoch's passes run on a freshly built MlpModel
        X, y = synthetic_windows(5)
        model = MlpModel.initialized(seed=4)
        names = ("w1", "b1", "w2", "b2", "w3", "b3")
        params = {k: np.array(getattr(model, k)) for k in names}
        velocity = {k: np.zeros_like(v) for k, v in params.items()}
        current, want = model, []
        for _ in range(60):
            loss, grads = mlp_loss_gradient(current, X, y)
            want.append(loss)
            for k in names:
                velocity[k] = MOMENTUM * velocity[k] - LEARNING_RATE * grads[k]
                params[k] = params[k] + velocity[k]
            current = MlpModel(**{k: params[k] for k in names})
        trained, trace = mlp_train(model, X, y, epochs=60)
        assert trace == want
        for k in names:
            assert np.asarray(getattr(trained, k)).tobytes() == \
                np.asarray(getattr(current, k)).tobytes()
        assert type(trained.b3) is float

    def test_beats_linear_training_mse(self):
        # the nonlinear term in the target is invisible to the linear fit
        X, y = synthetic_windows(2)
        linear = fit_linear(X, y)
        linear_mse = mse(linear.predict(X), y)
        trained, _ = mlp_train(MlpModel.initialized(seed=2), X, y)
        assert mse(mlp_predict(trained, X), y) < linear_mse

    def test_divergence_raises(self):
        # at the fixed learning rate, data 1e3 times the scaled range
        # overflows within a few epochs
        X, y = synthetic_windows(3)
        with pytest.raises(ArithmeticError, match="diverged at epoch"):
            mlp_train(MlpModel.initialized(seed=0), 1e3 * X, 1e3 * y,
                      epochs=200)

    def test_bad_hyperparameters_rejected(self):
        X, y = synthetic_windows(4)
        model = MlpModel.initialized(seed=0)
        with pytest.raises(ValueError):
            mlp_train(model, X, y, epochs=0)


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        model = MlpModel.initialized(num_inputs=5, hidden=4, seed=9)
        trained, _ = mlp_train(model, *synthetic_windows(9, n=20, m=5),
                               epochs=30)
        path = str(tmp_path / "net.txt")
        save_model(trained, path)
        kind, loaded = load_any_model(path)
        assert kind == "mlp"
        np.testing.assert_array_equal(loaded.w1, trained.w1)
        np.testing.assert_array_equal(loaded.b1, trained.b1)
        np.testing.assert_array_equal(loaded.w2, trained.w2)
        np.testing.assert_array_equal(loaded.b2, trained.b2)
        np.testing.assert_array_equal(loaded.w3, trained.w3)
        assert loaded.b3 == trained.b3

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="first line"):
            load_any_model(str(path))

    def test_truncated_file(self, tmp_path):
        model = MlpModel.initialized(num_inputs=3, hidden=2, seed=0)
        path = str(tmp_path / "net.txt")
        save_model(model, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(ValueError, match="b3 .* expects 1 values, found 0"):
            load_any_model(path)

    def test_non_numeric_value(self, tmp_path):
        model = MlpModel.initialized(num_inputs=2, hidden=2, seed=0)
        path = str(tmp_path / "net.txt")
        save_model(model, path)
        with open(path) as fh:
            content = fh.read()
        with open(path, "w") as fh:
            fh.write(content.replace("0.0", "zero", 1))
        with pytest.raises(ValueError, match="non-numeric"):
            load_any_model(path)

    def test_no_leftover_tmp_file(self, tmp_path):
        model = MlpModel.initialized(num_inputs=2, hidden=2, seed=0)
        path = str(tmp_path / "net.txt")
        save_model(model, path)
        assert os.listdir(tmp_path) == ["net.txt"]

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("mlp 1 1 1\n" + "0.5\n" * 6)
        with pytest.raises(ValueError, match="first line 'mlp 1 1 1'") as err:
            load_any_model(str(path))
        assert str(path) in str(err.value)

    def test_input_width_must_match_window(self, tmp_path):
        model = MlpModel.initialized(num_inputs=2, hidden=2, seed=0)
        path = tmp_path / "net.txt"
        save_model(model, path)
        text = path.read_text().replace("qforecast-model mlp 2", "qforecast-model mlp 3")
        path.write_text(text)
        with pytest.raises(ValueError, match="do not fit window 3") as err:
            load_any_model(path)
        assert str(path) in str(err.value)


class TestLinearPersistence:
    def test_roundtrip_exact(self, tmp_path):
        model = LinearModel(np.array([0.1, -2.5e-7, 3.0, 1.0 / 3.0]))
        path = str(tmp_path / "weights.txt")
        save_model(model, path)
        kind, loaded = load_any_model(path)
        assert kind == "linear"
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.25\n")
        with pytest.raises(ValueError, match="first line"):
            load_any_model(str(path))

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("qforecast-model linear 3\nweights 3\n0.5\n0.25\n")
        with pytest.raises(ValueError, match="expects 3 values, found 2") as err:
            load_any_model(str(path))
        assert str(path) in str(err.value)

    def test_mlp_file_rejected(self, tmp_path):
        # an MLP's arrays under a linear header
        model = MlpModel.initialized(num_inputs=2, hidden=2, seed=0)
        path = tmp_path / "net.txt"
        save_model(model, path)
        text = path.read_text().replace("model mlp", "model linear")
        path.write_text(text)
        with pytest.raises(ValueError, match="not an array header of a linear"):
            load_any_model(str(path))

    def test_old_format_rejected(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("linear 2\n0.5\n0.25\n")
        with pytest.raises(ValueError, match="first line 'linear 2'") as err:
            load_any_model(str(path))
        assert str(path) in str(err.value)
