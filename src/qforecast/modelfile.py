"""The one saved-model file format, shared by every model kind.

The first line names the kind and the window, e.g. ``qforecast-model pqc 12``.
Each array follows as a ``<name> <dims...>`` line (no dims for a scalar),
then its values in C order, one per line as ``repr(float)``, so every value
reads back bit for bit:

    linear  weights (window)
    mlp     w1 (h1, window), b1 (h1), w2 (h2, h1), b2 (h2), w3 (h2), b3 ()
    pqc     theta (4 * window)
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import LinearModel, MlpModel
from .linsys import atomic_write
from .pqc import PqcModel

MAGIC = "qforecast-model"
ARRAYS = {"linear": ("weights",),
          "mlp": ("w1", "b1", "w2", "b2", "w3", "b3"),
          "pqc": ("theta",)}


def fields(model) -> tuple[str, int, dict]:
    """(kind, window, named arrays) of a model; inverse of _build."""
    if isinstance(model, LinearModel):
        kind, window = "linear", model.weights.size
    elif isinstance(model, MlpModel):
        kind, window = "mlp", model.num_inputs
    elif isinstance(model, PqcModel):
        kind, window = "pqc", model.num_qubits
    else:
        raise TypeError(f"cannot save a {type(model).__name__}")
    return kind, window, {name: getattr(model, name) for name in ARRAYS[kind]}


def _build(kind: str, window: int, arrays: dict):
    if kind == "linear":
        return LinearModel(**arrays)
    if kind == "mlp":
        return MlpModel(**arrays)
    return PqcModel(num_qubits=window, **arrays)


def save_model(model, path) -> None:
    """Write any model in the one format, replacing `path` atomically."""
    kind, window, arrays = fields(model)
    lines = [f"{MAGIC} {kind} {window}"]
    for name, values in arrays.items():
        values = np.asarray(values, dtype=float)
        lines.append(" ".join([name, *map(str, values.shape)]))
        lines += [repr(float(v)) for v in values.ravel()]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_any_model(path):
    """Read a model file; returns (kind, model). Every error names the path."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]

    def bad(message):
        return ValueError(f"{path}: {message}")

    first = lines[0] if lines else ""
    head = first.split()
    if len(head) != 3 or head[0] != MAGIC:
        raise bad(f"not a {MAGIC} file (first line {first!r})")
    kind, window = head[1], head[2]
    if kind not in ARRAYS:
        raise bad(f"unknown model kind {kind!r} "
                  f"(choose from {', '.join(ARRAYS)})")
    if not window.isdigit():
        raise bad(f"window {window!r} is not a count")
    window = int(window)
    names = ARRAYS[kind]
    arrays = {}
    pos = 1
    while pos < len(lines):
        name, *dims = lines[pos].split()
        if name not in names:
            raise bad(f"{lines[pos]!r} is not an array header of a {kind} "
                      f"model (arrays {', '.join(names)})")
        if name in arrays:
            raise bad(f"array {name} appears twice")
        if not all(d.isdigit() for d in dims):
            raise bad(f"bad dims in {lines[pos]!r}")
        shape = tuple(int(d) for d in dims)
        count = math.prod(shape)
        values = []
        for line in lines[pos + 1:pos + 1 + count]:
            try:
                value = float(line)
            except ValueError:
                if line.split()[0] in names:  # the next array starts early
                    break
                raise bad(f"non-numeric value {line!r} in array {name}") from None
            values.append(value)
        if len(values) != count:
            raise bad(f"array {name} {shape} expects {count} values, "
                      f"found {len(values)}")
        arrays[name] = np.array(values).reshape(shape)
        pos += 1 + count
    missing = [name for name in names if name not in arrays]
    if missing:
        raise bad(f"missing array(s) {', '.join(missing)}")
    try:
        model = _build(kind, window, arrays)
    except (ValueError, TypeError) as exc:  # shapes the model refuses
        raise bad(str(exc)) from None
    if fields(model)[1] != window:
        raise bad(f"arrays do not fit window {window}")
    return kind, model
