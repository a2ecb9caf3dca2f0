"""Parameterized-quantum-circuit regressor for sliding-window forecasting.

Architecture (for k qubits, default 12): each of the k window values is
angle-encoded as RY(x_i) on its own qubit, giving the product state of the
(cos x_i/2, sin x_i/2) (`_product_states`), followed by two variational
blocks that depend on theta only (`model_plan`). Block L applies a CNOT
entangling pattern and then RX(theta), RY(theta) on every qubit. The first
pattern pairs neighbors (0,1), (2,3), ...; the second shifts by one, (1,2),
(3,4), ..., and closes the ring with (k-1, 0) when k >= 3. The prediction
is the expectation of Z on qubit 0, so outputs live in [-1, 1] and match
the scaled-difference target range. Predictions run, and training searches,
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


def _product_states(windows: np.ndarray) -> np.ndarray:
    """Row i is the product state of window i, RY(x_0) ... RY(x_{k-1})
    |0...0>: the Kronecker product of its factors (cos x_j/2, sin x_j/2),
    multiplied out from the first entry as the gates would, so the same
    bits up to the sign of an exact zero."""
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


def model_plan(num_qubits: int) -> qsim.Plan:
    """The two variational blocks as (gate, qubits, theta index) steps,
    run on a window's product state: the circuit's one definition."""
    plan = []
    for block in range(VARIATIONAL_BLOCKS):
        plan += [("cnot", pair, None)
                 for pair in _entangler_pairs(num_qubits, block)]
        base = block * 2 * num_qubits
        for q in range(num_qubits):
            plan += [("rx", (q,), base + 2 * q), ("ry", (q,), base + 2 * q + 1)]
    return tuple(plan)


@dataclass(frozen=True)
class ConePlan:
    """The readout's light cone of `model_plan`, for any theta.

    `qubits` are the cone's qubits in register order; `gates` holds the
    kept steps of `model_plan`, in order, with their qubits renumbered onto
    the cone. `live` are the theta indices the gates read: the only
    parameters <Z_0> depends on.
    """

    qubits: tuple[int, ...]
    gates: qsim.Plan

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
    """The cone plan of a `num_qubits` model, built on first use per width:
    `qsim.light_cone` of qubit 0 through `model_plan`, whose structure
    depends only on the width."""
    return ConePlan(*qsim.light_cone(num_qubits, model_plan(num_qubits), [0]))


def predict(model: PqcModel, window) -> float:
    return float(predict_batch(model, [window])[0])


def predict_batch(model: PqcModel, windows) -> np.ndarray:
    """<Z_0> per window, simulated on the readout's backward light cone.

    Only the steps of `model_plan` that can reach qubit 0, which
    `cone_plan` lists, are run at the model's theta (`qsim.run_plan`) on
    the qubits they touch, for all windows at once: each row is a window's
    product state on those qubits. For the paper's 12 qubits the cone is
    qubits (0, 1, 10, 11) and 9 gates, so a prediction reads window months
    t-12, t-11, t-2 and t-1 through theta 0, 1, 22, 23, 24 and 25. Every
    width up to 16 has a cone of at most 5 qubits, 4 for an even width. The
    gates left out cannot change <Z_0> (`qsim.light_cone`), so the values
    equal the whole circuit's up to rounding.
    """
    windows, _ = _checked_windows(model, windows)
    plan = cone_plan(model.num_qubits)
    return plan.predict(model.theta, plan.states(windows))


def _z0(amplitudes: np.ndarray) -> np.ndarray:
    """<Z_0> of each state along the last axis: the squared norm of its
    first half, where qubit 0 reads 0, minus that of its second half."""
    half = amplitudes.shape[-1] // 2
    p = amplitudes.real ** 2 + amplitudes.imag ** 2
    return p[..., :half].sum(axis=-1) - p[..., half:].sum(axis=-1)


def _checked_windows(model: PqcModel, windows, labels=None):
    """2-D float windows, and labels as a float vector if given."""
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if windows.ndim != 2:
        raise ValueError(f"windows must be one window or a 2-D array of "
                         f"them, got {windows.ndim} dimensions")
    if windows.shape[1] != model.num_qubits:
        raise ValueError(f"window length {windows.shape[1]} != "
                         f"{model.num_qubits} qubits")
    if not np.all(np.isfinite(windows)):
        raise ValueError("windows hold a non-finite value")
    if labels is not None:
        labels = np.asarray(labels, dtype=float).ravel()
        if len(windows) != labels.size:
            raise ValueError(f"{len(windows)} windows but {labels.size} labels")
    return windows, labels


def loss(model: PqcModel, windows, labels) -> float:
    """Mean squared error of the circuit predictions."""
    windows, labels = _checked_windows(model, windows, labels)
    return float(np.mean((predict_batch(model, windows) - labels) ** 2))


def gradient(model: PqcModel, windows, labels,
             method: str = "parameter-shift") -> np.ndarray:
    """Gradient of the loss in theta.

    parameter-shift evaluates predictions at theta_p +- pi/2 and chains the
    exact derivative through the squared loss; finite-difference applies
    central differences to the loss itself.

    The residual comes from `predict_batch`, so this is the exact
    derivative of the `loss` an optimizer sees. The shifted predictions run
    `model_plan` on the whole register through `qsim.run_plan`, one window
    at a time from its product state: each window runs the plan once, and
    theta_p's two branches start from that forward state just after
    theta_p's step, rotate once more by +-pi/2 about the same axis
    (R(theta + s) = R(s) R(theta)), and run the rest of the plan. That is
    the plan from theta_p's step on, at a copy of theta whose entry p is
    +-pi/2, since no later step reads theta_p. A plan of G steps that ends
    in a rotation, with its P rotations at positions g_p, applies
    G + 2 * sum(G - g_p) gates per window, where 2P + 1 whole circuits
    would apply (2P + 1) * G: 2,700 instead of 5,820 at 12 qubits.
    """
    windows, labels = _checked_windows(model, windows, labels)
    if method == "finite-difference":
        return optimize.finite_diff_gradient(
            lambda theta: loss(model.with_theta(theta), windows, labels),
            model.theta, h=FINITE_DIFF_STEP)
    if method != "parameter-shift":
        raise ValueError(f"method must be 'parameter-shift' or "
                         f"'finite-difference', got {method!r}")
    k = model.num_qubits
    plan = model_plan(k)
    rotations = [(i, p) for i, (_, _, p) in enumerate(plan) if p is not None]
    up = np.empty((model.num_parameters, len(windows)))
    down = np.empty_like(up)
    for w, state in enumerate(_product_states(windows)):
        start = 0
        for i, p in rotations:
            state = qsim.run_plan(k, plan[start:i + 1], model.theta, state)
            start = i + 1
            theta = model.theta.copy()
            theta[p] = math.pi / 2
            up[p, w] = _z0(qsim.run_plan(k, plan[i:], theta, state))
            theta[p] = -math.pi / 2
            down[p, w] = _z0(qsim.run_plan(k, plan[i:], theta, state))
    residual = 2.0 * (predict_batch(model, windows) - labels) / labels.size
    grad = np.empty(model.num_parameters)
    for p in range(model.num_parameters):
        grad[p] = float(residual @ ((up[p] - down[p]) / 2.0))
    return grad


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
    windows, labels = _checked_windows(model, windows, labels)
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
