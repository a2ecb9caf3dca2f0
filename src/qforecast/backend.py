"""Statevector gate kernels in plain numpy.

Both kernels mutate the amplitude buffer in place and assume a C-contiguous
complex128 array whose last axis has length 2**num_qubits; any leading axes
hold a batch of states, each of which gets the gate. Qubit 0 is the most
significant bit of the basis index, so reshaping to (-1,) + (2,) * num_qubits
puts qubit q on axis q + 1.
"""

import numpy as np

BACKEND_NAME = "python"


def apply_single_qubit(psi, num_qubits, qubit, m00, m01, m10, m11):
    low = 1 << (num_qubits - 1 - qubit)
    view = psi.reshape(-1, 2, low)
    a = view[:, 0, :].copy()
    b = view[:, 1, :]
    view[:, 0, :] = m00 * a + m01 * b
    view[:, 1, :] = m10 * a + m11 * b


def apply_cnot(psi, num_qubits, control, target):
    view = psi.reshape((-1,) + (2,) * num_qubits)
    on = [slice(None)] * (num_qubits + 1)
    on[1 + control] = 1
    flipped = list(on)
    on[1 + target] = 0
    flipped[1 + target] = 1
    on = tuple(on)
    flipped = tuple(flipped)
    tmp = np.copy(view[on])
    view[on] = view[flipped]
    view[flipped] = tmp
