"""Classical reference models: least-squares regression and a small MLP.

Both models consume the same window matrices as the quantum paths, so
their errors are directly comparable.  The network is intentionally
minimal: two hidden ReLU layers trained by full-batch gradient descent
with momentum, no regularisation, no early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .linsys import WindowSystem, normal_equations, solve_classical

HIDDEN_UNITS = 12

LEARNING_RATE = 0.01
MOMENTUM = 0.9
DEFAULT_EPOCHS = 2000


@dataclass(frozen=True)
class LinearModel:
    """Window-regression weights: prediction is ``features @ weights``."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        return x @ self.weights


def fit_linear(features: np.ndarray, labels: np.ndarray) -> LinearModel:
    """Least-squares fit through the normal equations."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise ValueError("features must be (n, m) with labels of length n")
    system = normal_equations(WindowSystem(X=x, y=y, window=x.shape[1]))
    return LinearModel(solve_classical(system))


@dataclass(frozen=True)
class MlpModel:
    """Fully connected net: input -> ReLU(h1) -> ReLU(h2) -> scalar."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=float)
        b1 = np.asarray(self.b1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        w3 = np.asarray(self.w3, dtype=float)
        if w1.ndim != 2 or w2.ndim != 2 or w3.ndim != 1:
            raise ValueError("w1 and w2 must be matrices, w3 a vector")
        h1, n_in = w1.shape
        h2 = w2.shape[0]
        if w2.shape != (h2, h1) or w3.shape != (h2,):
            raise ValueError(
                "layer shapes disagree: w1 %s, w2 %s, w3 %s"
                % (w1.shape, w2.shape, w3.shape)
            )
        if b1.shape != (h1,) or b2.shape != (h2,):
            raise ValueError("bias shapes disagree with weight shapes")
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2),
                          ("b2", b2), ("w3", w3)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(name + " contains non-finite values")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "b3", float(self.b3))

    @property
    def num_inputs(self) -> int:
        return self.w1.shape[1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        return mlp_predict(self, features)

    @classmethod
    def initialized(cls, num_inputs: int = 12, hidden: int = HIDDEN_UNITS,
                    seed: int | None = None) -> "MlpModel":
        """Uniform Glorot init: bound sqrt(6 / (fan_in + fan_out)), zero biases."""
        rng = np.random.default_rng(seed)

        def glorot(fan_out, fan_in):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=(fan_out, fan_in))

        w1 = glorot(hidden, num_inputs)
        w2 = glorot(hidden, hidden)
        w3 = glorot(1, hidden)[0]
        return cls(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(hidden),
                   w3=w3, b3=0.0)


def mlp_forward(model: MlpModel, features: np.ndarray):
    """Predictions plus the intermediate activations needed for backprop.

    Returns (predictions, cache) where cache holds the pre-activation and
    post-ReLU values of both hidden layers.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    z1 = x @ model.w1.T + model.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ model.w2.T + model.b2
    a2 = np.maximum(z2, 0.0)
    out = a2 @ model.w3 + model.b3
    return out, (x, z1, a1, z2, a2)


def mlp_predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(model, features)
    return out


def mse(predictions: np.ndarray, labels: np.ndarray) -> float:
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError("predictions and labels differ in shape")
    if p.size == 0:
        raise ValueError("cannot average over zero samples")
    return float(np.mean((p - y) ** 2))


def mlp_backward(model: MlpModel, cache, residual_grad: np.ndarray):
    """Gradients of the loss given d(loss)/d(output) per sample.

    ReLU uses subgradient 0 at the kink.  Returns a dict keyed like the
    model fields.
    """
    x, z1, a1, z2, a2 = cache
    g = np.asarray(residual_grad, dtype=float)

    gw3 = g @ a2
    gb3 = float(np.sum(g))
    d2 = np.outer(g, model.w3) * (z2 > 0.0)
    gw2 = d2.T @ a1
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ model.w2) * (z1 > 0.0)
    gw1 = d1.T @ x
    gb1 = d1.sum(axis=0)
    return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2,
            "w3": gw3, "b3": gb3}


def mlp_loss_gradient(model: MlpModel, features: np.ndarray,
                      labels: np.ndarray):
    """Mean-squared-error loss and its gradient in one pass."""
    y = np.asarray(labels, dtype=float)
    out, cache = mlp_forward(model, features)
    if out.shape != y.shape:
        raise ValueError("features and labels disagree in sample count")
    diff = out - y
    loss = float(np.mean(diff ** 2))
    grads = mlp_backward(model, cache, 2.0 * diff / diff.size)
    return loss, grads


def mlp_train(model: MlpModel, features: np.ndarray, labels: np.ndarray,
              epochs: int = DEFAULT_EPOCHS):
    """Full-batch gradient descent with classical momentum.

    Velocity update v <- mu v - lr g, parameter update p <- p + v, with
    lr = LEARNING_RATE and mu = MOMENTUM.
    Returns (trained_model, loss_trace) where the trace has one entry per
    epoch, evaluated before that epoch's update.
    """
    if epochs < 1:
        raise ValueError("epochs must be positive")
    params = {"w1": model.w1.copy(), "b1": model.b1.copy(),
              "w2": model.w2.copy(), "b2": model.b2.copy(),
              "w3": model.w3.copy(), "b3": np.float64(model.b3)}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    trace = []
    for epoch in range(epochs):
        # the passes read only w1 ... b3, so they take the bare arrays; an
        # MlpModel, with its checks and copies, is built once at the end.
        # Overflow here means divergence, reported via the loss check below
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = mlp_loss_gradient(SimpleNamespace(**params),
                                            features, labels)
        if not np.isfinite(loss):
            raise ArithmeticError(
                "training diverged at epoch %d (loss %r)" % (epoch, loss))
        trace.append(loss)
        with np.errstate(over="ignore", invalid="ignore"):
            for key in params:
                velocity[key] = (MOMENTUM * velocity[key]
                                 - LEARNING_RATE * grads[key])
                params[key] = params[key] + velocity[key]
        if not all(np.all(np.isfinite(v)) for v in params.values()):
            raise ArithmeticError(
                "training diverged at epoch %d (non-finite parameters)" % epoch)
    return MlpModel(w1=params["w1"], b1=params["b1"], w2=params["w2"],
                    b2=params["b2"], w3=params["w3"],
                    b3=float(params["b3"])), trace
