"""Gate-kernel timing on whichever backend qforecast.backend selected.

The same measurement as benchmarks/bench_kernels.py: a fixed random
sequence of RX/RY rotations and CNOTs (one in four) applied in place to a
random state, reported as the median microseconds per gate. Each gate reads
and writes the whole state, 2 x 16 B x 2**n computed bytes.
"""

import statistics
import time

import numpy as np

from qforecast import backend

import oracle

QUBITS = (4, 8, 12, 14)


def gate_sequence(num_qubits, num_gates, rng):
    ops = []
    for _ in range(num_gates):
        if rng.random() < 0.25:
            control, target = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
            ops.append((control, target, None))
        else:
            axis = "rx" if rng.random() < 0.5 else "ry"
            ops.append((int(rng.integers(num_qubits)), None,
                        oracle.rotation(axis, rng.uniform(0, 2 * np.pi))))
    return ops


def us_per_gate(num_qubits, num_gates=200, repeats=7):
    rng = np.random.default_rng(0)
    ops = gate_sequence(num_qubits, num_gates, rng)
    psi0 = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    psi0 /= np.linalg.norm(psi0)
    times = []
    for _ in range(repeats):
        psi = psi0.copy()
        t0 = time.perf_counter()
        for qubit, target, m in ops:
            if m is None:
                backend.apply_cnot(psi, num_qubits, qubit, target)
            else:
                backend.apply_single_qubit(psi, num_qubits, qubit,
                                           m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / num_gates * 1e6
