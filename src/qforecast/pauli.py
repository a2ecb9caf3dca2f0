"""Pauli-basis decomposition of Hermitian matrices.

A 2**k x 2**k Hermitian matrix M expands as

    M = sum_i alpha_i M_i,    alpha_i = Tr(M_i M) / 2**k,

where M_i is the Kronecker product of k single-qubit Paulis indexed by the
base-4 digits of i (most significant digit first, matching the leftmost
tensor factor). All coefficients of a Hermitian matrix are real.

Both directions are tensor contractions (Hantzko, Binkowski & Gupta,
arXiv:2310.13421): with M reshaped to one (row, column) index pair per
qubit, each pair is contracted with the stack SIGMA in turn. That is
O(k 4**k) work, with no loop over the 4**k strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LABELS = "IXYZ"
SIGMA = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)  # SIGMA[d] is the Pauli with digit d, shape (4, 2, 2)
SIGMA.setflags(write=False)

HERMITIAN_ATOL = 1e-8
DEFAULT_PRUNE_TOL = 1e-12


def base4_digits(index: int, num_qubits: int) -> tuple[int, ...]:
    """Base-4 digits of `index`, most significant first, padded to length k.

    Example: base4_digits(6, 7) == (0, 0, 0, 0, 0, 1, 2), i.e. sigma_1 on
    qubit 5 and sigma_2 on qubit 6.
    """
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= index < 4 ** num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubit(s)")
    digits = []
    for _ in range(num_qubits):
        digits.append(index % 4)
        index //= 4
    return tuple(reversed(digits))


@dataclass(frozen=True)
class PauliString:
    """A k-fold Pauli tensor product, stored as base-4 digits per qubit."""

    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(int(d) for d in self.digits)
        if not digits:
            raise ValueError("empty Pauli string")
        if any(not 0 <= d <= 3 for d in digits):
            raise ValueError(f"digits must be 0..3, got {digits}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        try:
            return cls(tuple(LABELS.index(ch) for ch in label))
        except ValueError:
            raise ValueError(f"bad Pauli label {label!r}") from None

    @classmethod
    def from_index(cls, index: int, num_qubits: int) -> "PauliString":
        return cls(base4_digits(index, num_qubits))

    @property
    def label(self) -> str:
        return "".join(LABELS[d] for d in self.digits)

    @property
    def num_qubits(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class PauliDecomposition:
    """Sparse list of (coefficient, PauliString) terms on num_qubits qubits."""

    num_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        terms = tuple((float(a), s) for a, s in self.terms)
        for _, s in terms:
            if s.num_qubits != self.num_qubits:
                raise ValueError(f"term {s.label} has {s.num_qubits} qubits, "
                                 f"expected {self.num_qubits}")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, label: str) -> float:
        for a, s in self.terms:
            if s.label == label:
                return a
        return 0.0


def decompose(matrix: np.ndarray, prune_tol: float = DEFAULT_PRUNE_TOL,
              ) -> PauliDecomposition:
    """Expand a Hermitian matrix in the Pauli basis.

    Rejects non-Hermitian input (tolerance 1e-8) and drops coefficients with
    |alpha| < prune_tol. Any power-of-two dimension works; the work arrays
    are the size of the matrix.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix shape {m.shape} is not square")
    dim = m.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within 1e-8")
    m = (m + m.conj().T) / 2.0
    num_qubits = dim.bit_length() - 1
    # Tr(P M) = sum_rc conj(P[r, c]) M[r, c] for Hermitian P. Axes start as
    # (rows..., columns...); each step contracts the leading qubit's row and
    # column and appends its Pauli digit, so the digits end in order.
    t = m.reshape((2,) * (2 * num_qubits))
    sigma_conj = SIGMA.conj()
    for q in range(num_qubits):
        t = np.tensordot(t, sigma_conj, axes=([0, num_qubits - q], [1, 2]))
    alphas = t.reshape(-1) / dim
    terms = tuple((float(alphas[i].real), PauliString.from_index(int(i), num_qubits))
                  for i in np.flatnonzero(np.abs(alphas) >= prune_tol))
    return PauliDecomposition(num_qubits, terms)


def reconstruct(decomposition: PauliDecomposition) -> np.ndarray:
    """The matrix sum_i alpha_i M_i, by the reverse contraction."""
    k = decomposition.num_qubits
    alphas = np.zeros((4,) * k, dtype=complex)
    for alpha, string in decomposition.terms:
        alphas[string.digits] += alpha
    # each step replaces the leading digit by that qubit's (row, column)
    # pair at the end; the pairs are then regrouped as (rows..., columns...)
    t = alphas
    for _ in range(k):
        t = np.tensordot(t, SIGMA, axes=([0], [0]))
    t = t.transpose(tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2)))
    return t.reshape(1 << k, 1 << k)
