"""The numpy gate kernels against dense-matrix and permutation oracles."""

import numpy as np

from qforecast import backend


def random_buffer(rng, num_qubits):
    v = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return np.ascontiguousarray(v / np.linalg.norm(v), dtype=complex)


def random_2x2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_backend_reports_a_name():
    assert backend.BACKEND_NAME == "python"


def test_pure_single_qubit_matches_kron_oracle():
    I2 = np.eye(2, dtype=complex)
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        q = int(rng.integers(k))
        m = random_2x2(rng)
        buf = random_buffer(rng, k)
        want = buf.copy()
        mats = [I2] * k
        mats[q] = m
        dense = mats[0]
        for extra in mats[1:]:
            dense = np.kron(dense, extra)
        want = dense @ want
        backend.apply_single_qubit(buf, k, q,
                                   m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        assert np.allclose(buf, want, atol=1e-13)


def test_pure_cnot_matches_permutation_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        control, target = map(int, rng.choice(k, size=2, replace=False))
        buf = random_buffer(rng, k)
        want = np.empty_like(buf)
        for i in range(1 << k):
            cbit = (i >> (k - 1 - control)) & 1
            want[i ^ (cbit << (k - 1 - target))] = buf[i]
        backend.apply_cnot(buf, k, control, target)
        assert np.allclose(buf, want, atol=0)



def test_leading_axes_are_a_batch_of_states():
    rng = np.random.default_rng(2)
    k = 3
    rows = np.array([random_buffer(rng, k) for _ in range(5)])
    m = random_2x2(rng)
    batch = rows.copy()
    backend.apply_single_qubit(batch, k, 1, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    backend.apply_cnot(batch, k, 2, 0)
    for row, got in zip(rows, batch):
        one = row.copy()
        backend.apply_single_qubit(one, k, 1, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        backend.apply_cnot(one, k, 2, 0)
        assert got.tobytes() == one.tobytes()
