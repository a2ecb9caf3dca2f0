"""Circuit-regressor tests: layout, predictions, gradients, persistence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qforecast import pqc, qsim
from qforecast.modelfile import load_any_model
from qforecast.pqc import (PqcModel, TrainConfig, gradient, loss, model_plan,
                           predict, predict_batch, save_model, train)
from test_qsim import bind, count_constructions


def small_model(num_qubits=4, seed=0, **kw):
    return PqcModel.initialized(num_qubits=num_qubits, seed=seed, **kw)


class TestModelConstruction:
    def test_parameter_count_twelve_qubits(self):
        m = PqcModel.initialized()
        assert m.num_qubits == 12
        assert m.theta.shape == (48,)

    def test_seeded_init_range_and_determinism(self):
        a = PqcModel.initialized(seed=7)
        b = PqcModel.initialized(seed=7)
        assert np.array_equal(a.theta, b.theta)
        assert np.max(np.abs(a.theta)) <= 0.1
        c = PqcModel.initialized(seed=8)
        assert not np.array_equal(a.theta, c.theta)

    def test_rejects_bad_theta_shape(self):
        with pytest.raises(ValueError):
            PqcModel(theta=np.zeros(10), num_qubits=12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_theta(self, bad):
        theta = np.zeros(48)
        theta[5] = bad
        with pytest.raises(ValueError, match="theta contains non-finite values"):
            PqcModel(theta=theta)
        with pytest.raises(ValueError, match="non-finite"):
            PqcModel.initialized().with_theta(np.full(48, bad))

    def test_rejects_more_qubits_than_the_cap(self):
        with pytest.raises(ValueError, match="at most 16 qubits, got 17"):
            PqcModel(theta=np.zeros(68), num_qubits=pqc.MAX_QUBITS + 1)


def ry_circuit(window):
    """The angle encoding as gates: RY(x_i) on qubit i."""
    circuit = qsim.Circuit(len(window))
    for q, x in enumerate(window):
        circuit.ry(q, float(x))
    return circuit


def model_circuit(model):
    """The model as a Circuit: model_plan's steps at the model's theta."""
    return bind(qsim.Circuit(model.num_qubits), model_plan(model.num_qubits), model.theta)


def encode(window):
    """A window's angle-encoded state, the product state the gradient
    starts from."""
    return qsim.Statevector(pqc._product_states(np.reshape(window, (1, -1)))[0])


def full_circuit_predictions(model, windows):
    """Oracle: one circuit per window, its RY encoding gates followed by the
    steps of model_plan at the model's theta, run from |0...0>."""
    readout = "Z" + "I" * (model.num_qubits - 1)
    out = []
    for w in windows:
        circuit = bind(ry_circuit(w), model_plan(model.num_qubits), model.theta)
        out.append(qsim.expectation(qsim.run_circuit(circuit), readout))
    return np.array(out)


def full_circuit_gradient(model, windows, labels):
    """Oracle: the parameter-shift gradient of the squared loss, with every
    prediction taken from the full per-window circuit."""
    residual = 2.0 * (full_circuit_predictions(model, windows) - labels) / labels.size
    grad = np.empty(model.num_parameters)
    for p in range(model.num_parameters):
        shift = np.zeros(model.num_parameters)
        shift[p] = math.pi / 2
        up = full_circuit_predictions(model.with_theta(model.theta + shift), windows)
        down = full_circuit_predictions(model.with_theta(model.theta - shift), windows)
        grad[p] = float(residual @ ((up - down) / 2.0))
    return grad


def corpus(k, seed):
    """Fixed thetas and windows for k qubits: training-range and wide windows,
    one all-zero window, small and full-range thetas."""
    rng = np.random.default_rng(seed)
    windows = np.vstack([rng.uniform(-0.25, 0.25, size=(5, k)),
                         rng.uniform(-3.0, 3.0, size=(2, k)),
                         np.zeros((1, k))])
    labels = rng.uniform(-0.25, 0.25, size=len(windows))
    thetas = [rng.uniform(-0.1, 0.1, 4 * k), rng.uniform(-math.pi, math.pi, 4 * k)]
    return [PqcModel(theta=t, num_qubits=k) for t in thetas], windows, labels


class TestFeatureMap:
    """The angle encoding, one RY(x_i) per feature, as the product state
    that pqc._product_states builds."""

    def test_one_gate_per_feature(self):
        # encode equals the state of the RY gates bit for bit
        for k in (1, 3, 4, 12):
            rng = np.random.default_rng(k)
            for window in [*rng.uniform(-0.25, 0.25, size=(4, k)),
                           *rng.uniform(-3.0, 3.0, size=(2, k))]:
                want = qsim.run_circuit(ry_circuit(window)).amplitudes
                assert encode(window).amplitudes.tobytes() == want.tobytes()

    def test_zero_entries_equal_the_gates_up_to_the_sign_of_zero(self):
        window = np.array([-0.2, 0.0, 0.1, -0.0])
        got = encode(window).amplitudes
        want = qsim.run_circuit(ry_circuit(window)).amplitudes
        assert np.array_equal(got, want)
        assert got[want != 0].tobytes() == want[want != 0].tobytes()

    def test_zero_window_gives_zero_state(self):
        assert np.array_equal(encode(np.zeros(4)).amplitudes, [1] + [0] * 15)

    def test_locality_of_feature_changes(self):
        # changing feature i only composes an extra RY rotation on qubit i
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.25, 0.25, size=4)
        x2 = x.copy()
        x2[2] += 0.3
        circuit = qsim.Circuit(4)
        circuit.ry(2, 0.3)
        moved = qsim.run_circuit(circuit, initial=encode(x))
        assert np.allclose(moved.amplitudes, encode(x2).amplitudes, atol=1e-12)


class TestModelCircuit:
    def test_gate_count_and_order_twelve_qubits(self):
        plan = model_plan(12)
        assert len(plan) == 60
        names = [name for name, _, _ in plan]
        assert names[:6] == ["cnot"] * 6
        assert names[6:30] == ["rx", "ry"] * 12
        assert names[30:36] == ["cnot"] * 6
        assert names[36:] == ["rx", "ry"] * 12

    def test_entangler_patterns_twelve_qubits(self):
        plan = model_plan(12)
        first = [qubits for _, qubits, _ in plan[:6]]
        second = [qubits for _, qubits, _ in plan[30:36]]
        assert first == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
        assert second == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 0)]
        assert all(p is None for _, _, p in plan[:6] + plan[30:36])

    def test_theta_layout_layer_major_rx_first(self):
        rotations = [step for step in model_plan(4) if step[0] != "cnot"]
        assert [p for _, _, p in rotations] == list(range(16))
        assert [qubits[0] for _, qubits, _ in rotations] == [0, 0, 1, 1, 2, 2, 3, 3] * 2
        assert [name for name, _, _ in rotations] == ["rx", "ry"] * 8

    def test_zero_everything_gives_zero_state(self):
        m = PqcModel(theta=np.zeros(16), num_qubits=4)
        state = qsim.run_circuit(model_circuit(m), encode(np.zeros(4)))
        assert np.allclose(state.amplitudes, [1] + [0] * 15, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected(self, bad):
        windows = np.zeros((3, 4))
        windows[1, 2] = bad
        for call in (lambda: predict_batch(small_model(), windows),
                     lambda: loss(small_model(), windows, np.zeros(3)),
                     lambda: gradient(small_model(), windows, np.zeros(3))):
            with pytest.raises(ValueError, match="non-finite"):
                call()
        with pytest.raises(ValueError, match="non-finite"):
            predict_batch(PqcModel.initialized(), np.full((1, 12), np.nan))

    def test_three_dimensional_windows_rejected(self):
        with pytest.raises(ValueError, match="got 3 dimensions"):
            predict_batch(small_model(), np.zeros((2, 3, 4)))

    def test_window_length_checked(self):
        # the circuit takes no window; predict_batch checks the width
        for width in (3, 5):
            with pytest.raises(ValueError, match=f"window length {width} != 4 qubits"):
                predict_batch(small_model(), np.zeros((2, width)))
            with pytest.raises(ValueError, match=f"window length {width} != 4 qubits"):
                predict(small_model(), np.zeros(width))

    @pytest.mark.parametrize("count", [1, 50])
    def test_built_once_per_batch(self, monkeypatch, count):
        # a batch builds model_plan at most once, whatever its size:
        # once for a width not yet planned, not at all after that
        built = []

        def counting(num_qubits):
            built.append(num_qubits)
            return model_plan(num_qubits)

        monkeypatch.setattr(pqc, "model_plan", counting)
        pqc.cone_plan.cache_clear()
        try:
            m = small_model(seed=2)
            windows = np.random.default_rng(count).uniform(-0.25, 0.25, size=(count, 4))
            assert predict_batch(m, windows).shape == (count,)
            assert built == [m.num_qubits]
            assert predict_batch(m, windows).shape == (count,)
            assert built == [m.num_qubits]
        finally:
            pqc.cone_plan.cache_clear()

    def test_built_once_per_width(self, monkeypatch):
        # the cone plan reads model_plan once per width, whatever the
        # theta or the batch; predictions run the cone plan alone
        built = []

        def counting(num_qubits):
            built.append(num_qubits)
            return model_plan(num_qubits)

        monkeypatch.setattr(pqc, "model_plan", counting)
        pqc.cone_plan.cache_clear()
        try:
            rng = np.random.default_rng(3)
            for k in (4, 5, 4, 5):
                for count in (1, 50):
                    m = small_model(k).with_theta(rng.uniform(-3, 3, 4 * k))
                    windows = rng.uniform(-0.25, 0.25, size=(count, k))
                    assert predict_batch(m, windows).shape == (count,)
            assert built == [4, 5]
        finally:
            pqc.cone_plan.cache_clear()


class TestFullCircuitOracle:
    """The light cone run on encoded windows equals the full per-window
    circuit of the paper, encoding gates included, to 1e-12: the gates
    outside the cone are not applied, so the rounding differs."""

    @pytest.mark.parametrize("k", [3, 4, 5, 12])
    def test_predictions_and_loss(self, k):
        models, windows, labels = corpus(k, seed=20 + k)
        for m in models:
            want = full_circuit_predictions(m, windows)
            assert np.max(np.abs(predict_batch(m, windows) - want)) <= 1e-12
            assert np.max(np.abs([predict(m, w) for w in windows] - want)) <= 1e-12
            assert abs(loss(m, windows, labels)
                       - float(np.mean((want - labels) ** 2))) <= 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5, 12])
    def test_parameter_shift_gradient(self, k):
        models, windows, labels = corpus(k, seed=30 + k)
        if k == 12:
            windows, labels = windows[[0, 5, 7]], labels[[0, 5, 7]]
        m = models[1]
        want = full_circuit_gradient(m, windows, labels)
        assert np.max(np.abs(gradient(m, windows, labels) - want)) <= 1e-12


def light_cone_predictions(model, windows):
    """Oracle: <Z_0> from the light cone of the whole model_plan, cut for
    each call by qsim.light_cone and run at the model's theta."""
    k = model.num_qubits
    cone, plan = qsim.light_cone(k, model_plan(k), [0])
    states = pqc._product_states(np.asarray(windows)[:, cone])
    return pqc._z0(qsim.run_plan(len(cone), plan, model.theta, states))


def expected_cone(k):
    """Readout cone of model_plan: the block-1 ring pulls in qubit k-1,
    and for odd k its (k-2, k-1) pair pulls in k-2 as well; block 0 then
    pairs each of those with its neighbour."""
    if k <= 3:
        return tuple(range(k)), {1: 4, 2: 5, 3: 11}[k]
    if k % 2 == 0:
        return (0, 1, k - 2, k - 1), 9
    return (0, 1, k - 3, k - 2, k - 1), 12


class TestLightCone:
    # the 6 parameters the 12-qubit cone holds; the other 42 are inert
    LIVE_PARAMETERS = (0, 1, 22, 23, 24, 25)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_cone_of_every_width(self, k):
        plan = pqc.cone_plan(k)
        assert (plan.qubits, len(plan.gates)) == expected_cone(k)
        assert len(plan.qubits) <= 5
        assert all(q < len(plan.qubits) for _, qubits, _ in plan.gates for q in qubits)
        assert len(plan.live) == len(set(plan.live)) == sum(
            name != "cnot" for name, _, _ in plan.gates)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_predictions_equal_the_cone_of_the_whole_circuit(self, k):
        # the cone plan at the model's theta runs the steps light_cone
        # keeps of model_plan: same order, same bits
        rng = np.random.default_rng(50 + k)
        for theta in (rng.uniform(-0.1, 0.1, 4 * k),
                      rng.uniform(-math.pi, math.pi, 4 * k)):
            m = PqcModel(theta=theta, num_qubits=k)
            windows = np.vstack([rng.uniform(-0.25, 0.25, size=(6, k)),
                                 rng.uniform(-3.0, 3.0, size=(3, k))])
            want = light_cone_predictions(m, windows)
            assert predict_batch(m, windows).tobytes() == want.tobytes()

    def test_paper_width_reads_four_months_through_six_parameters(self):
        plan = pqc.cone_plan(12)
        assert plan.qubits == (0, 1, 10, 11) and len(plan.gates) == 9
        assert plan.live == self.LIVE_PARAMETERS
        # in plan order, the cone's rotations read theta 0, 1, 22, 23, 24, 25
        reads = tuple(p for _, _, p in plan.gates if p is not None)
        assert reads == self.LIVE_PARAMETERS

    def test_inert_entries_leave_predictions_bitwise_equal(self):
        rng = np.random.default_rng(40)
        m = PqcModel.initialized().with_theta(rng.uniform(-math.pi, math.pi, 48))
        windows = rng.uniform(-0.25, 0.25, size=(6, 12))
        want = predict_batch(m, windows).tobytes()
        moved = windows.copy()
        moved[:, 2:10] = rng.uniform(-3.0, 3.0, size=(6, 8))
        assert predict_batch(m, moved).tobytes() == want
        inert = [p for p in range(48) if p not in self.LIVE_PARAMETERS]
        assert len(inert) == 42
        theta = m.theta.copy()
        theta[inert] = rng.uniform(-math.pi, math.pi, 42)
        assert predict_batch(m.with_theta(theta), windows).tobytes() == want
        for p in self.LIVE_PARAMETERS:
            theta = m.theta.copy()
            theta[p] += 0.5
            assert predict_batch(m.with_theta(theta), windows).tobytes() != want


def six_features(windows):
    """The six fixed features the 12-qubit model is linear in, of a, b, c,
    d = window positions 0, 1, 10 and 11 (months t-12, t-11, t-2, t-1)."""
    a, b, c, d = np.asarray(windows)[:, [0, 1, 10, 11]].T
    return np.stack([np.cos(a), np.cos(a) * np.sin(d),
                     np.cos(a) * np.cos(c) * np.cos(d), np.sin(a) * np.sin(b),
                     np.sin(a) * np.sin(b) * np.sin(d),
                     np.sin(a) * np.sin(b) * np.cos(c) * np.cos(d)], axis=1)


class TestFunctionClass:
    """At 12 qubits the regressor is a linear model on six fixed
    trigonometric features of four months, whatever theta: theta sets only
    the six coefficients (Schuld, Sweke & Meyer, arXiv:2008.08605)."""

    @given(theta=hnp.arrays(float, 48, elements=st.floats(-math.pi, math.pi)),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_linear_in_six_features(self, theta, seed):
        m = PqcModel(theta=theta)
        windows = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(40, 12))
        fit, held_out = windows[:24], windows[24:]
        coef = np.linalg.lstsq(six_features(fit), predict_batch(m, fit), rcond=None)[0]
        assert np.max(np.abs(six_features(held_out) @ coef
                             - predict_batch(m, held_out))) <= 1e-12


class TestPredict:
    def test_zero_model_predicts_one(self):
        m = PqcModel(theta=np.zeros(16), num_qubits=4)
        assert predict(m, np.zeros(4)) == pytest.approx(1.0, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        m = small_model()
        for _ in range(20):
            w = rng.uniform(-0.25, 0.25, size=4)
            p = predict(m.with_theta(rng.uniform(-math.pi, math.pi, 16)), w)
            assert -1.0 - 1e-12 <= p <= 1.0 + 1e-12

    def test_no_windows_give_no_predictions(self):
        assert predict_batch(small_model(), np.zeros((0, 4))).shape == (0,)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        m = small_model(seed=3)
        windows = rng.uniform(-0.25, 0.25, size=(5, 4))
        batch = predict_batch(m, windows)
        assert np.allclose(batch, [predict(m, w) for w in windows], atol=0)


class TestLoss:
    def test_builds_no_gate_or_statevector(self, monkeypatch):
        # after the first call has read the cone plan, a loss is arrays only
        rng = np.random.default_rng(41)
        m = PqcModel.initialized()
        windows = rng.uniform(-0.25, 0.25, size=(19, 12))
        labels = rng.uniform(-0.25, 0.25, size=19)
        loss(m, windows, labels)
        built = count_constructions(monkeypatch)
        loss(m.with_theta(rng.uniform(-math.pi, math.pi, 48)), windows, labels)
        assert built == {"Circuit": 0, "Statevector": 0}

    def test_zero_when_labels_match_predictions(self):
        rng = np.random.default_rng(3)
        m = small_model(seed=4)
        windows = rng.uniform(-0.25, 0.25, size=(6, 4))
        labels = predict_batch(m, windows)
        assert loss(m, windows, labels) == pytest.approx(0.0, abs=1e-14)

    def test_hand_computed_value(self):
        m = PqcModel(theta=np.zeros(16), num_qubits=4)
        # predictions are exactly 1.0; labels 0.5 -> mse 0.25
        windows = np.zeros((3, 4))
        assert loss(m, windows, [0.5, 0.5, 0.5]) == pytest.approx(0.25, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            loss(small_model(), np.zeros((2, 4)), [1.0])

    def test_length_mismatch_before_any_prediction(self, monkeypatch):
        def no_predictions(*args):
            raise AssertionError("predict_batch ran")

        monkeypatch.setattr(pqc, "predict_batch", no_predictions)
        with pytest.raises(ValueError, match="4 windows but 1 labels"):
            loss(small_model(), np.zeros((4, 4)), [0.0])


class TestGradient:
    def test_parameter_shift_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        m = small_model(seed=5)
        windows = rng.uniform(-0.25, 0.25, size=(5, 4))
        labels = rng.uniform(-0.25, 0.25, size=5)
        for _ in range(5):
            probe = m.with_theta(rng.uniform(-math.pi, math.pi, 16))
            shift = gradient(probe, windows, labels)
            diff = gradient(probe, windows, labels, method="finite-difference")
            denom = max(1.0, float(np.max(np.abs(diff))))
            assert np.max(np.abs(shift - diff)) / denom <= 1e-4

    def test_zero_residual_gives_exactly_zero(self):
        rng = np.random.default_rng(5)
        m = small_model(seed=6)
        windows = rng.uniform(-0.25, 0.25, size=(4, 4))
        labels = predict_batch(m, windows)
        g = gradient(m, windows, labels)
        assert np.max(np.abs(g)) == 0.0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            gradient(small_model(), np.zeros((1, 4)), [0.0], method="spsa")

    @pytest.mark.parametrize("method", ["parameter-shift", "finite-difference"])
    def test_length_mismatch_before_any_circuit(self, monkeypatch, method):
        def no_circuits(*args):
            raise AssertionError("a circuit ran")

        monkeypatch.setattr(qsim, "run_plan", no_circuits)
        with pytest.raises(ValueError, match="4 windows but 1 labels"):
            gradient(small_model(), np.zeros((4, 4)), [0.0], method=method)

    @given(data=st.data(), k=st.integers(1, 5))
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_equals_the_full_circuit_oracle(self, data, k):
        # k = 1 and 2 have degenerate entangler patterns
        angles = st.floats(-math.pi, math.pi)
        theta = data.draw(hnp.arrays(float, 4 * k, elements=angles))
        count = data.draw(st.integers(1, 3))
        windows = data.draw(hnp.arrays(float, (count, k), elements=angles))
        labels = data.draw(hnp.arrays(float, count, elements=st.floats(-1, 1)))
        m = PqcModel(theta=theta, num_qubits=k)
        want = full_circuit_gradient(m, windows, labels)
        assert np.max(np.abs(gradient(m, windows, labels) - want)) <= 1e-12

    @pytest.mark.parametrize("count", [1, 2])
    def test_gates_applied_twelve_qubits(self, monkeypatch, count):
        # 60 forward gates, and each of the 48 rotations at position g runs
        # its two shifted branches over the last 60 - g gates, one window
        # at a time on the whole register; the residual's predictions run
        # the 9 gates of the 4-qubit cone on all windows at once
        applied = {12: 0, 4: 0}
        run = qsim.run_plan

        def counting(num_qubits, plan, theta, amplitudes):
            rows = np.size(amplitudes) >> num_qubits
            applied[num_qubits] += len(plan) * rows
            return run(num_qubits, plan, theta, amplitudes)

        monkeypatch.setattr(qsim, "run_plan", counting)
        windows = np.random.default_rng(count).uniform(-0.25, 0.25, size=(count, 12))
        gradient(PqcModel.initialized(), windows, np.zeros(count))
        assert applied == {12: 2700 * count, 4: 9 * count}

    def test_builds_no_gate_circuit_or_statevector(self, monkeypatch):
        # after the first call has read the cone plan, a gradient runs
        # plans on arrays only
        rng = np.random.default_rng(42)
        m = PqcModel.initialized()
        windows = rng.uniform(-0.25, 0.25, size=(2, 12))
        labels = rng.uniform(-0.25, 0.25, size=2)
        gradient(m, windows, labels)
        built = count_constructions(monkeypatch)
        gradient(m.with_theta(rng.uniform(-math.pi, math.pi, 48)), windows, labels)
        assert built == {"Circuit": 0, "Statevector": 0}


class TestTrain:
    def make_data(self, rng, m):
        windows = rng.uniform(-0.25, 0.25, size=(8, m.num_qubits))
        labels = rng.uniform(-0.25, 0.25, size=8)
        return windows, labels

    def test_derivative_free_reduces_loss(self):
        rng = np.random.default_rng(6)
        m = small_model(seed=7)
        windows, labels = self.make_data(rng, m)
        initial = loss(m, windows, labels)
        fitted, result = train(m, windows, labels,
                               TrainConfig(max_iters=150, max_evals=150))
        assert result.trace[0] == pytest.approx(initial, abs=1e-12)
        assert loss(fitted, windows, labels) < initial
        assert loss(fitted, windows, labels) == pytest.approx(result.fun, abs=1e-12)

    def test_quasi_newton_reduces_loss(self):
        rng = np.random.default_rng(7)
        m = small_model(seed=8)
        windows, labels = self.make_data(rng, m)
        initial = loss(m, windows, labels)
        fitted, result = train(m, windows, labels,
                               TrainConfig(optimizer="lbfgs", max_iters=20))
        assert loss(fitted, windows, labels) < initial

    def test_best_seen_never_above_initial(self):
        rng = np.random.default_rng(8)
        m = small_model(seed=9)
        windows = rng.uniform(-0.25, 0.25, size=(4, 4))
        fitted, result = train(m, windows, np.zeros(4),
                               TrainConfig(max_iters=40, max_evals=40))
        assert result.fun <= result.trace[0] + 1e-15

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = small_model(seed=10)
        windows, labels = self.make_data(rng, m)
        _, r1 = train(m, windows, labels, TrainConfig(max_iters=60, max_evals=60))
        _, r2 = train(m, windows, labels, TrainConfig(max_iters=60, max_evals=60))
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x, r2.x)

    @pytest.mark.parametrize("optimizer", ["cobyla", "lbfgs"])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_searches_only_the_live_parameters(self, monkeypatch, optimizer, k):
        # the optimizer sees the cone's parameters; every other one comes
        # back bit for bit as it went in
        starts = []
        minimize = pqc.optimize.minimize

        def recording(method, fun, x0, grad, options):
            starts.append(np.array(x0))
            return minimize(method, fun, x0, grad, options)

        monkeypatch.setattr(pqc.optimize, "minimize", recording)
        rng = np.random.default_rng(11 + k)
        m = small_model(k, seed=k)
        windows = rng.uniform(-0.25, 0.25, size=(3, k))
        labels = rng.uniform(-0.25, 0.25, size=3)
        config = TrainConfig(optimizer=optimizer, max_iters=2, max_evals=30)
        fitted, result = train(m, windows, labels, config)
        live = list(pqc.cone_plan(k).live)
        assert len(live) == {1: 4, 5: 8, 12: 6}[k]
        assert len(starts) == 1 and starts[0].tobytes() == m.theta[live].tobytes()
        inert = np.setdiff1d(np.arange(4 * k), live)
        assert fitted.theta[inert].tobytes() == m.theta[inert].tobytes()
        assert not np.array_equal(fitted.theta[live], m.theta[live])
        assert result.x.tobytes() == fitted.theta.tobytes()
        assert loss(fitted, windows, labels) == result.fun

    def test_windows_prepared_once_per_call(self, monkeypatch):
        # each evaluation runs the plan on cone states built once per train
        built = []
        product_states = pqc._product_states

        def counting(windows):
            built.append(len(windows))
            return product_states(windows)

        monkeypatch.setattr(pqc, "_product_states", counting)
        rng = np.random.default_rng(12)
        m = small_model(seed=13)
        windows, labels = self.make_data(rng, m)
        _, result = train(m, windows, labels, TrainConfig(max_iters=30, max_evals=30))
        assert result.evaluations == 30
        assert built == [8]

    @pytest.mark.parametrize("optimizer", ["cobyla", "lbfgs"])
    def test_bad_data_fails_before_the_optimizer(self, monkeypatch, optimizer):
        def no_search(*args):
            raise AssertionError("the optimizer ran")

        monkeypatch.setattr(pqc.optimize, "minimize", no_search)
        config = TrainConfig(optimizer=optimizer)
        with pytest.raises(ValueError, match="4 windows but 1 labels"):
            train(small_model(), np.zeros((4, 4)), [0.0], config)
        windows = np.zeros((2, 4))
        windows[1, 3] = np.nan
        with pytest.raises(ValueError, match="windows hold a non-finite value"):
            train(small_model(), windows, [0.0, 0.0], config)

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            train(small_model(), np.zeros((1, 4)), [0.0],
                  TrainConfig(optimizer="sgd"))

    def test_zero_evaluation_budget_names_the_value(self):
        with pytest.raises(ValueError, match="max_evals must be at least 1, got 0"):
            train(small_model(), np.zeros((1, 4)), [0.0],
                  TrainConfig(max_evals=0))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        m = small_model(seed=11)
        path = tmp_path / "model.txt"
        save_model(m, path)
        kind, back = load_any_model(path)
        assert kind == "pqc"
        assert np.array_equal(back.theta, m.theta)
        assert back.num_qubits == m.num_qubits

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(10)
        m = small_model(seed=12)
        path = tmp_path / "model.txt"
        save_model(m, path)
        _, back = load_any_model(path)
        w = rng.uniform(-0.25, 0.25, size=4)
        assert predict(back, w) == predict(m, w)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0.1\n0.2\n")
        with pytest.raises(ValueError, match="first line"):
            load_any_model(path)

    @pytest.mark.parametrize("text, fragment", [
        ("qforecast-model\ntheta 4\n", "first line"),
        ("1\n2\n3\n4\nqforecast-model pqc 1\ntheta 4\n", "first line '1'"),
        ("num_qubits 1\nobservable Z\nfeature_scale 1.0\n1\n2\n3\n4\n",
         "first line 'num_qubits 1'"),
        ("qforecast-model circuit 1\ntheta 4\n", "unknown model kind"),
        ("qforecast-model pqc one\ntheta 4\n", "not a count"),
        ("qforecast-model pqc 1\n", "missing array"),
        ("qforecast-model pqc 1\ntheta 4\n1\n2\n3\n4\ntheta 4\n",
         "appears twice"),
        ("qforecast-model pqc 1\nphi 4\n", "not an array header"),
        ("qforecast-model pqc 1\ntheta four\n", "bad dims"),
        ("qforecast-model pqc 1\ntheta 4\n1\n2\n3\n", "expects 4 values, found 3"),
        ("qforecast-model pqc 1\ntheta 3\n1\n2\n3\n4\n", "not an array header"),
        ("qforecast-model pqc 1\ntheta 4\n1\nnan?\n3\n4\n", "non-numeric"),
        ("qforecast-model pqc 1\ntheta 4\n1\nnan\n3\n-inf\n", "non-finite"),
        ("qforecast-model pqc 2\ntheta 4\n1\n2\n3\n4\n", "theta has shape"),
    ])
    def test_malformed_file_error_names_path(self, tmp_path, text, fragment):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=fragment) as err:
            load_any_model(path)
        assert str(err.value).startswith(str(path) + ": ")
