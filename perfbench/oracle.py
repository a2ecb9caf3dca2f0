"""Reference numpy oracle for the benchmark's correctness checks.

A dense statevector written apart from ``qforecast.qsim``: single-qubit
gates act on a batch of states, and CNOT is built
from the projector identity |0><0|_c + |1><1|_c X_t. The checks compare the
program against this code, so the simulator is never checked with itself.
Qubit 0 is the most significant bit of the basis index, as in the paper.
"""

from functools import reduce

import numpy as np

PAULI = {"I": np.eye(2, dtype=complex),
         "X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
         "Z": np.array([[1, 0], [0, -1]], dtype=complex)}
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def pauli_matrix(label):
    """Kronecker product of the single-qubit Paulis named by the label."""
    return reduce(np.kron, [PAULI[ch] for ch in label])


def rotation(axis, angle):
    """RX, RY or RZ; an array of angles gives a stack of matrices."""
    half = np.asarray(angle, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    if axis == "rx":
        m = [[c, -1j * s], [-1j * s, c]]
    elif axis == "ry":
        m = [[c, -s], [s, c]]
    else:
        m = [[np.exp(-1j * half), 0 * c], [0 * c, np.exp(1j * half)]]
    return np.moveaxis(np.array(m, dtype=complex), (0, 1), (-2, -1))


def apply_1q(states, n, q, m):
    """Apply m (2x2, or one 2x2 per state) to qubit q of a (batch, 2**n) array."""
    s = states.reshape(len(states), 1 << q, 2, 1 << (n - q - 1))
    m = np.broadcast_to(m, (len(states), 2, 2))[:, :, :, None, None]
    lo, hi = s[:, :, 0], s[:, :, 1]
    out = np.stack([m[:, 0, 0] * lo + m[:, 0, 1] * hi,
                    m[:, 1, 0] * lo + m[:, 1, 1] * hi], axis=2)
    return out.reshape(states.shape)


def apply_cnot(states, n, control, target):
    flipped = apply_1q(apply_1q(states, n, control, _P1), n, target, PAULI["X"])
    return apply_1q(states, n, control, _P0) + flipped


_FIXED = {"x": PAULI["X"], "h": (PAULI["X"] + PAULI["Z"]) / np.sqrt(2)}


def apply_gate(states, n, name, qubits, angle=None):
    if name == "cnot":
        return apply_cnot(states, n, *qubits)
    m = _FIXED[name] if name in _FIXED else rotation(name, angle)
    return apply_1q(states, n, qubits[0], m)


def run_gates(n, gates, batch=1):
    """States after (name, qubits, angle) gates applied to |0...0>."""
    states = np.zeros((batch, 1 << n), dtype=complex)
    states[:, 0] = 1.0
    for gate in gates:
        states = apply_gate(states, n, *gate)
    return states


def pqc_predictions(theta, windows, chunk=64):
    """<Z_0> of the paper's circuit: RY(x_i) on qubit i, then two blocks of
    CNOT pattern + RX/RY on every qubit. Pattern 0 pairs (0,1),(2,3),...;
    pattern 1 pairs (1,2),(3,4),... and closes the ring with (k-1, 0)."""
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    k = windows.shape[1]
    patterns = [[(q, q + 1) for q in range(0, k - 1, 2)],
                [(q, q + 1) for q in range(1, k - 1, 2)] + ([(k - 1, 0)] if k >= 3 else [])]
    gates = []
    for block, pairs in enumerate(patterns):
        gates += [("cnot", p, None) for p in pairs]
        for q in range(k):
            gates += [("rx", (q,), theta[2 * k * block + 2 * q]),
                      ("ry", (q,), theta[2 * k * block + 2 * q + 1])]
    out = []
    for start in range(0, len(windows), chunk):
        rows = windows[start:start + chunk]
        states = run_gates(k, [], batch=len(rows))
        for q in range(k):
            states = apply_1q(states, k, q, rotation("ry", rows[:, q]))
        for gate in gates:
            states = apply_gate(states, k, *gate)
        probs = np.abs(states) ** 2
        half = probs.shape[1] // 2
        out.append(probs[:, :half].sum(axis=1) - probs[:, half:].sum(axis=1))
    return np.concatenate(out)


def vqls_cost(theta, a, b, layers):
    """Normalized VQLS cost 1 - |<b|Ax>|^2 / <Ax|Ax> for the layered ansatz:
    RY, RZ on every qubit, then per layer a CNOT chain and RY, RZ again."""
    k = int(np.log2(len(b)))
    gates, pos = [], 0
    for layer in range(layers + 1):
        gates += [("cnot", (q, q + 1), None) for q in range(k - 1)] if layer else []
        for q in range(k):
            gates += [("ry", (q,), theta[pos]), ("rz", (q,), theta[pos + 1])]
            pos += 2
    x = run_gates(k, gates)[0]
    psi = np.asarray(a, dtype=complex) @ x
    b = np.asarray(b, dtype=complex) / np.linalg.norm(b)
    return float(1.0 - abs(np.vdot(b, psi)) ** 2 / np.vdot(psi, psi).real)
