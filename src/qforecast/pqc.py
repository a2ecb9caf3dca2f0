"""Parameterized-quantum-circuit regressor for sliding-window forecasting.

Architecture (for k qubits, default 12): each of the k window values is
angle-encoded as RY(x_i) on its own qubit, giving the product state of the
(cos x_i/2, sin x_i/2) (`encode`), followed by two variational blocks that
depend on theta only (`model_circuit`). Block L applies a CNOT entangling
pattern and then RX(theta), RY(theta) on every qubit. The first pattern
pairs neighbors (0,1), (2,3), ...; the second shifts by one, (1,2), (3,4),
..., and closes the ring with (k-1, 0) when k >= 3. The prediction is the
expectation of Z on qubit 0, so outputs live in [-1, 1] and match the
scaled-difference target range. Predictions run, and training searches,
only the readout's light cone (`cone_plan`).

Parameters are flat, layer-major then qubit-minor, RX before RY:
theta[L * 2k + 2q] is the RX angle of qubit q in block L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import optimize, qsim

VARIATIONAL_BLOCKS = 2
# A state of 16 qubits takes 1 MiB; one of 30 would take 16 GiB.
MAX_QUBITS = 16
FINITE_DIFF_STEP = 1e-5  # step of the finite-difference gradient


@dataclass(frozen=True)
class PqcModel:
    theta: np.ndarray
    num_qubits: int = 12

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.num_qubits > MAX_QUBITS:
            raise ValueError(f"a PQC takes at most {MAX_QUBITS} qubits, "
                             f"got {self.num_qubits}")
        theta = np.array(self.theta, dtype=float)
        want = VARIATIONAL_BLOCKS * 2 * self.num_qubits
        if theta.shape != (want,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({want},)")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta contains non-finite values")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def initialized(cls, num_qubits: int = 12, seed: int = 0) -> "PqcModel":
        """Fresh model with theta drawn uniformly from [-0.1, 0.1]."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-0.1, 0.1, size=VARIATIONAL_BLOCKS * 2 * num_qubits)
        return cls(theta=theta, num_qubits=num_qubits)

    @property
    def num_parameters(self) -> int:
        return self.theta.size

    def with_theta(self, theta) -> "PqcModel":
        return replace(self, theta=np.asarray(theta, dtype=float))

    def predict(self, windows) -> np.ndarray:
        return predict_batch(self, windows)


def encode(window) -> qsim.Statevector:
    """RY(x_0) ... RY(x_{k-1}) |0...0>, multiplied out from qubit 0 as the
    gates would: the same bits, up to the sign of an exact zero."""
    return qsim.Statevector(_product_states(np.reshape(window, (1, -1)))[0])


def _product_states(windows: np.ndarray) -> np.ndarray:
    """Row i is the product state of window i, the Kronecker product of its
    factors (cos x_j/2, sin x_j/2) multiplied out from the first entry."""
    half = np.asarray(windows, dtype=float) / 2
    factors = np.stack([np.cos(half), np.sin(half)], axis=-1)
    amps = np.ones((len(half), 1))
    for j in range(half.shape[1]):
        amps = (amps[:, :, None] * factors[:, None, j]).reshape(len(half), 2 << j)
    return amps


def _entangler_pairs(num_qubits: int, block: int) -> list[tuple[int, int]]:
    if block == 0:
        return [(q, q + 1) for q in range(0, num_qubits - 1, 2)]
    pairs = [(q, q + 1) for q in range(1, num_qubits - 1, 2)]
    if num_qubits >= 3:
        pairs.append((num_qubits - 1, 0))
    return pairs


def model_circuit(model: PqcModel) -> qsim.Circuit:
    """The two variational blocks, run on the state `encode` gives."""
    k = model.num_qubits
    circuit = qsim.Circuit(k)
    for block in range(VARIATIONAL_BLOCKS):
        for control, target in _entangler_pairs(k, block):
            circuit.cnot(control, target)
        base = block * 2 * k
        for q in range(k):
            circuit.rx(q, model.theta[base + 2 * q])
            circuit.ry(q, model.theta[base + 2 * q + 1])
    return circuit


@dataclass(frozen=True)
class ConePlan:
    """The readout's light cone of `model_circuit`, for any theta.

    `qubits` are the cone's qubits in register order; each entry of
    `gates` is a kept gate's (name, qubits renumbered onto the cone, theta
    index), in circuit order, with index None for a cnot. `live` are the
    theta indices the gates read: the only parameters <Z_0> depends on.
    """

    qubits: tuple[int, ...]
    gates: tuple[tuple[str, tuple[int, ...], int | None], ...]

    @property
    def live(self) -> tuple[int, ...]:
        return tuple(sorted(p for _, _, p in self.gates if p is not None))

    def states(self, windows: np.ndarray) -> np.ndarray:
        """Each checked window's product state on the cone's qubits."""
        return _product_states(windows[:, self.qubits])

    def predict(self, theta: np.ndarray, states: np.ndarray) -> np.ndarray:
        """<Z_0> of each row of `states` after the plan's gates at theta."""
        return _z0(qsim.run_plan(len(self.qubits), self.gates, theta, states))


@functools.lru_cache(maxsize=MAX_QUBITS)
def cone_plan(num_qubits: int) -> ConePlan:
    """The cone plan of a `num_qubits` model, built on first use per width.

    The cone's structure depends only on the width: it is read off
    `model_circuit` at theta_p = p, where each kept rotation's angle is its
    own theta index.
    """
    indices = PqcModel(theta=np.arange(VARIATIONAL_BLOCKS * 2 * num_qubits),
                       num_qubits=num_qubits)
    qubits, circuit = qsim.light_cone(model_circuit(indices), [0])
    return ConePlan(qubits, qsim.plan_of(circuit))


def predict(model: PqcModel, window) -> float:
    return float(predict_batch(model, [window])[0])


def predict_batch(model: PqcModel, windows) -> np.ndarray:
    """<Z_0> per window, simulated on the readout's backward light cone.

    Only the gates of `model_circuit` that can reach qubit 0, which
    `cone_plan` lists, are run at the model's theta (`qsim.run_plan`, with
    no Gate built) on the qubits they touch, for all windows at once: each
    row is a window's product state on those qubits. For the paper's 12
    qubits the cone is qubits (0, 1, 10, 11) and 9 gates, so a prediction
    reads window months t-12, t-11, t-2 and t-1 through theta 0, 1, 22, 23,
    24 and 25. Every width up to 16 has a cone of at most 5 qubits, 4 for an
    even width. The gates left out cannot change <Z_0> (`qsim.light_cone`),
    so the values equal the whole circuit's up to rounding.
    """
    windows = _checked_windows(model, windows)
    plan = cone_plan(model.num_qubits)
    return plan.predict(model.theta, plan.states(windows))


def _z0(amplitudes: np.ndarray) -> np.ndarray:
    """<Z_0> of each state along the last axis: the squared norm of its
    first half, where qubit 0 reads 0, minus that of its second half."""
    half = amplitudes.shape[-1] // 2
    p = amplitudes.real ** 2 + amplitudes.imag ** 2
    return p[..., :half].sum(axis=-1) - p[..., half:].sum(axis=-1)


def _checked_windows(model: PqcModel, windows) -> np.ndarray:
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if windows.ndim != 2:
        raise ValueError(f"windows must be one window or a 2-D array of "
                         f"them, got {windows.ndim} dimensions")
    if windows.shape[1] != model.num_qubits:
        raise ValueError(f"window length {windows.shape[1]} != "
                         f"{model.num_qubits} qubits")
    if not np.all(np.isfinite(windows)):
        raise ValueError("windows hold a non-finite value")
    return windows


def loss(model: PqcModel, windows, labels) -> float:
    """Mean squared error of the circuit predictions."""
    labels = np.asarray(labels, dtype=float).ravel()
    preds = predict_batch(model, windows)
    if preds.size != labels.size:
        raise ValueError(f"{preds.size} windows but {labels.size} labels")
    return float(np.mean((preds - labels) ** 2))


def gradient(model: PqcModel, windows, labels,
             method: str = "parameter-shift") -> np.ndarray:
    """Gradient of the loss in theta.

    parameter-shift evaluates predictions at theta_p +- pi/2 and chains the
    exact derivative through the squared loss; finite-difference applies
    central differences to the loss itself.

    The residual comes from `predict_batch`, so this is the exact
    derivative of the `loss` an optimizer sees. The shifted predictions run
    on the whole register: each window runs the circuit once, and theta_p's
    two branches start from that forward state just after theta_p's gate,
    rotate once more by +-pi/2 about the same axis (R(theta + s) =
    R(s) R(theta)), and run the rest of the circuit. A circuit of G gates
    that ends in a rotation, with its P rotations at positions g_p, applies
    G + 2 * sum(G - g_p) gates per window, where 2P + 1 whole circuits
    would apply (2P + 1) * G: 2,700 instead of 5,820 at 12 qubits.
    """
    windows = _checked_windows(model, windows)
    labels = np.asarray(labels, dtype=float).ravel()
    if len(windows) != labels.size:
        raise ValueError(f"{len(windows)} windows but {labels.size} labels")
    if method == "finite-difference":
        return optimize.finite_diff_gradient(
            lambda theta: loss(model.with_theta(theta), windows, labels),
            model.theta, h=FINITE_DIFF_STEP)
    if method != "parameter-shift":
        raise ValueError(f"method must be 'parameter-shift' or "
                         f"'finite-difference', got {method!r}")
    k = model.num_qubits
    gates = model_circuit(model).gates
    # the p-th rotation gate carries theta_p
    rotations = [i for i, gate in enumerate(gates) if gate.name != "cnot"]
    bounds = [0, *(i + 1 for i in rotations)]
    forward = [_circuit(k, gates[a:b]) for a, b in zip(bounds, bounds[1:])]
    shifted = [[_circuit(k, [qsim.Gate(gates[i].name, gates[i].qubits, step),
                             *gates[i + 1:]])
                for step in (math.pi / 2, -math.pi / 2)] for i in rotations]
    up = np.empty((len(rotations), len(windows)))
    down = np.empty_like(up)
    for w, window in enumerate(windows):
        state = encode(window)
        for p, (segment, (plus, minus)) in enumerate(zip(forward, shifted)):
            state = qsim.run_circuit(segment, state)
            up[p, w] = _z0(qsim.run_circuit(plus, state).amplitudes)
            down[p, w] = _z0(qsim.run_circuit(minus, state).amplitudes)
    residual = 2.0 * (predict_batch(model, windows) - labels) / labels.size
    grad = np.empty(model.num_parameters)
    for p in range(model.num_parameters):
        grad[p] = float(residual @ ((up[p] - down[p]) / 2.0))
    return grad


def _circuit(num_qubits: int, gates) -> qsim.Circuit:
    circuit = qsim.Circuit(num_qubits)
    for gate in gates:
        circuit.add(gate)
    return circuit


@dataclass
class TrainConfig:
    optimizer: str = "cobyla"
    max_iters: int = 300
    max_evals: int | None = None


def train(model: PqcModel, windows, labels, config: TrainConfig | None = None,
          ) -> tuple[PqcModel, optimize.OptimResult]:
    """Fit theta to the windowed data; returns the best-seen model and the
    optimizer result (per-evaluation loss trace, convergence flag, and the
    full theta as x).

    The optimizer searches only the live parameters, `cone_plan`'s theta
    indices: the others cannot change a prediction, so every one of them
    keeps its initial value. The windows are checked, and their product
    states on the cone built, once per call; each evaluation runs the plan
    at its theta and equals `loss` there bit for bit.
    """
    config = config or TrainConfig()
    windows = _checked_windows(model, windows)
    labels = np.asarray(labels, dtype=float).ravel()
    if len(windows) != labels.size:
        raise ValueError(f"{len(windows)} windows but {labels.size} labels")
    plan = cone_plan(model.num_qubits)
    live = list(plan.live)
    states = plan.states(windows)

    def full(x):
        theta = model.theta.copy()
        theta[live] = x
        return theta

    def objective(x):
        return float(np.mean((plan.predict(full(x), states) - labels) ** 2))

    def grad(x):
        return gradient(model.with_theta(full(x)), windows, labels)[live]

    options = optimize.OptimOptions(max_iters=config.max_iters,
                                    max_evals=config.max_evals)
    result = optimize.minimize(config.optimizer, objective, model.theta[live],
                               grad, options)
    fitted = model.with_theta(full(result.x))
    return fitted, replace(result, x=fitted.theta)


def save_model(model: PqcModel, path) -> None:
    """Write the model in the format of qforecast.modelfile."""
    from .modelfile import save_model  # modelfile imports this module
    save_model(model, path)
