"""Pauli decomposition tests: orthogonality, round trips, worked indices."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qforecast.pauli import (PauliDecomposition, PauliString, SIGMA, base4_digits,
                             decompose, reconstruct)


def pauli_matrix(string) -> np.ndarray:
    """The oracle's dense Kronecker product of a Pauli string, given as a
    label or a PauliString."""
    if isinstance(string, str):
        string = PauliString.from_label(string)
    return reduce(np.kron, (SIGMA[d] for d in string.digits))


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def sweep_coefficients(m):
    """The oracle: Tr(M_i m) / dim for every string i, one dense product each."""
    dim = m.shape[0]
    k = dim.bit_length() - 1
    return np.array([np.trace(pauli_matrix(PauliString.from_index(i, k)) @ m) / dim
                     for i in range(4 ** k)])


def dense_coefficients(decomposition):
    out = np.zeros(4 ** decomposition.num_qubits)
    for a, s in decomposition.terms:
        out[int("".join(map(str, s.digits)), 4)] = a
    return out


@st.composite
def hermitian_matrices(draw):
    dim = 1 << draw(st.integers(1, 4))
    parts = hnp.arrays(np.float64, (dim, dim),
                       elements=st.floats(-10.0, 10.0, allow_nan=False))
    m = draw(parts) + 1j * draw(parts)
    return (m + m.conj().T) / 2


class TestBase4Digits:
    def test_worked_example(self):
        # 6 = 12 base 4, left-padded over seven qubits
        assert base4_digits(6, 7) == (0, 0, 0, 0, 0, 1, 2)

    def test_small_cases(self):
        assert base4_digits(0, 1) == (0,)
        assert base4_digits(3, 1) == (3,)
        assert base4_digits(4, 2) == (1, 0)
        assert base4_digits(7, 2) == (1, 3)

    def test_round_trip_all_two_qubit_indices(self):
        for i in range(16):
            digits = base4_digits(i, 2)
            assert digits[0] * 4 + digits[1] == i

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            base4_digits(16, 2)
        with pytest.raises(ValueError):
            base4_digits(-1, 2)


class TestPauliString:
    def test_label_round_trip(self):
        s = PauliString.from_label("IXZY")
        assert s.digits == (0, 1, 3, 2)
        assert s.label == "IXZY"
        assert s.num_qubits == 4

    def test_from_index_matches_worked_example(self):
        s = PauliString.from_index(6, 7)
        assert s.label == "IIIIIXY"

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("IXQ")

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            PauliString((0, 4))


class TestPauliMatrix:
    def test_single_qubit_constants(self):
        assert np.allclose(pauli_matrix("I"), np.eye(2))
        assert np.allclose(pauli_matrix("X"), [[0, 1], [1, 0]])
        assert np.allclose(pauli_matrix("Y"), [[0, -1j], [1j, 0]])
        assert np.allclose(pauli_matrix("Z"), [[1, 0], [0, -1]])

    def test_kron_order_leftmost_first(self):
        # ZX = Z (x) X: the Z factor acts on the leading tensor slot
        want = np.kron(SIGMA[3], SIGMA[1])
        assert np.allclose(pauli_matrix("ZX"), want)
        assert not np.allclose(pauli_matrix("ZX"), pauli_matrix("XZ"))

    def test_trace_orthogonality_exhaustive_to_three_qubits(self):
        for k in (1, 2, 3):
            dim = 1 << k
            mats = [pauli_matrix(PauliString.from_index(i, k))
                    for i in range(4 ** k)]
            for i, a in enumerate(mats):
                for j, b in enumerate(mats):
                    tr = np.trace(a @ b)
                    want = dim if i == j else 0.0
                    assert abs(tr - want) <= 1e-12


class TestDecompose:
    def test_two_by_two_example(self):
        # [[1, 2], [2, -1]] = 2 X + 1 Z
        d = decompose(np.array([[1.0, 2.0], [2.0, -1.0]]))
        assert d.coefficient("X") == pytest.approx(2.0, abs=1e-12)
        assert d.coefficient("Z") == pytest.approx(1.0, abs=1e-12)
        assert len(d) == 2

    def test_identity_coefficient_is_mean_trace(self):
        d = decompose(np.diag([4.0, 2.0]))
        assert d.coefficient("I") == pytest.approx(3.0, abs=1e-12)
        assert d.coefficient("Z") == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matrix_uses_only_i_and_z(self):
        d = decompose(np.diag([1.0, 2.0, 3.0, 4.0]))
        for _, s in d.terms:
            assert set(s.label) <= {"I", "Z"}
        assert np.allclose(reconstruct(d), np.diag([1, 2, 3, 4]), atol=1e-12)

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(42)
        for dim in (2, 4, 8, 16):
            for _ in range(10):
                m = random_hermitian(rng, dim)
                d = decompose(m)
                assert np.max(np.abs(reconstruct(d) - m)) <= 1e-10

    def test_coefficients_real_for_hermitian_input(self):
        rng = np.random.default_rng(1)
        d = decompose(random_hermitian(rng, 8))
        for a, _ in d.terms:
            assert isinstance(a, float)

    def test_real_symmetric_has_even_sigma2_count(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=(8, 8))
            m = (m + m.T) / 2
            d = decompose(m)
            for a, s in d.terms:
                assert s.digits.count(2) % 2 == 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3))

    def test_prune_tol_drops_noise_terms(self):
        m = 2.0 * pauli_matrix("XX") + 1e-14 * pauli_matrix("ZZ")
        d = decompose(np.real(m + m.conj().T) / 2, prune_tol=1e-12)
        assert [s.label for _, s in d.terms] == ["XX"]


class TestContraction:
    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_matches_the_per_string_sweep_and_round_trips(self, m):
        d = decompose(m, prune_tol=0.0)
        assert len(d) == m.size
        assert np.max(np.abs(dense_coefficients(d) - sweep_coefficients(m))) <= 1e-12
        assert np.max(np.abs(reconstruct(d) - m)) <= 1e-12

    def test_reconstruct_matches_the_dense_sum(self):
        rng = np.random.default_rng(9)
        terms = tuple((float(rng.normal()), PauliString.from_index(int(i), 3))
                      for i in rng.choice(64, size=20, replace=False))
        d = PauliDecomposition(3, terms)
        want = sum(a * pauli_matrix(s) for a, s in terms)
        assert np.max(np.abs(reconstruct(d) - want)) <= 1e-12

    def test_128_by_128_decomposes(self):
        rng = np.random.default_rng(10)
        m = random_hermitian(rng, 128)
        d = decompose(m)
        assert d.num_qubits == 7
        assert np.max(np.abs(reconstruct(d) - m)) <= 1e-12
        for a, s in d.terms[::997]:
            want = np.trace(pauli_matrix(s) @ m) / 128
            assert abs(a - want) <= 1e-12


class TestReconstructAndPrune:
    def test_reconstruct_single_term(self):
        d = PauliDecomposition(2, ((0.5, PauliString.from_label("XI")),))
        assert np.allclose(reconstruct(d), 0.5 * pauli_matrix("XI"), atol=1e-14)

    def test_prune_removes_small_terms(self):
        m = pauli_matrix("X") + 1e-15 * pauli_matrix("Z")
        d = decompose(m, prune_tol=1e-12)
        assert [s.label for _, s in d.terms] == ["X"]

    def test_prune_zero_epsilon_keeps_all(self):
        m = pauli_matrix("X") + 1e-15 * pauli_matrix("Z")
        d = decompose(m, prune_tol=0.0)
        assert [s.label for _, s in d.terms] == ["I", "X", "Y", "Z"]
        assert d.coefficient("Z") == 1e-15

    def test_prune_error_bounded_by_epsilon(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 4)
        eps = 0.05
        removed = [a for a, _ in decompose(m, prune_tol=0.0).terms if abs(a) < eps]
        err = np.max(np.abs(reconstruct(decompose(m, prune_tol=eps)) - m))
        # each dropped term contributes at most |alpha| in operator norm
        assert err <= sum(abs(a) for a in removed) + 1e-12

    def test_mismatched_term_length_rejected(self):
        with pytest.raises(ValueError):
            PauliDecomposition(2, ((1.0, PauliString.from_label("X")),))
