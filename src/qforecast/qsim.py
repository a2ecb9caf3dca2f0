"""Small dense statevector simulator.

Conventions:
    * Qubit 0 is the leftmost tensor factor, i.e. the most significant bit
      of the basis index: |q0 q1 ... q_{k-1}>.
    * States are complex128 and unit norm; operations return new states.
    * Gates are h, x, rx, ry, rz and cnot.
    * A circuit is a plan: (name, qubits, theta index) steps, index None
      for a gate with no angle. `run_plan` binds theta at each run and
      applies each step to a batch of states with one of the two in-place
      numpy kernels of qforecast.backend; `light_cone` cuts a plan to the
      steps that can reach a set of qubits.
    * `plan_state` runs a paired plan (`pair_plan`) on |0...0> alone, in
      plain Python arithmetic: on a few qubits numpy's fixed cost per call
      outweighs the work. It equals `run_plan` to rounding, not bit for
      bit. The VQLS ansatz state runs this way.
    * `Circuit` records a plan gate by gate, its angles beside it.
      `Statevector`, `run_circuit`, `circuit_unitary` and `expectation` run
      a Circuit through `run_plan` on a checked unit-norm state. Only the
      tests and the benchmark call them; both check plans against dense
      oracles of their own.
    * `hadamard_test` applies the law of a Hadamard test's ancilla through
      `ancilla_estimate`; it simulates no ancilla.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend, pauli

ATOL = 1e-10
NORM_ATOL = 1e-8

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


# A single-qubit gate's entries m00, m01, m10, m11, row-major, as Python
# complex numbers: the kernels take a complex scalar faster than a float.

def _rx(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return complex(c), -1j * s, -1j * s, complex(c)


def _ry(theta: float) -> tuple:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return complex(c), complex(-s), complex(s), complex(c)


def _rz(theta: float) -> tuple:
    return cmath.exp(-0.5j * theta), 0j, 0j, cmath.exp(0.5j * theta)


_FIXED_1Q = {"h": tuple(_H.ravel()), "x": tuple(pauli.SIGMA[1].ravel())}
_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz}


def _entries(name: str, angle: float | None) -> tuple:
    """m00, m01, m10, m11 of the single-qubit gate `name` at `angle`: the
    one source of the numbers `run_plan` and `plan_state` apply."""
    fixed = _FIXED_1Q.get(name)
    return fixed if fixed is not None else _ROTATIONS[name](angle)


def is_unitary(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    eye = np.eye(matrix.shape[0])
    return bool(np.max(np.abs(matrix.conj().T @ matrix - eye)) <= ATOL)


@dataclass(frozen=True)
class Statevector:
    """Immutable unit-norm amplitude vector over 2**num_qubits basis states."""

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude length {amps.size} is not a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", amps.size.bit_length() - 1)

    @classmethod
    def zero(cls, num_qubits: int) -> "Statevector":
        return cls.basis_state(num_qubits, 0)

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "Statevector":
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        if not 0 <= index < (1 << num_qubits):
            raise ValueError(f"basis index {index} out of range")
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


Plan = tuple[tuple[str, tuple[int, ...], int | None], ...]


class Circuit:
    """A plan on a fixed qubit count, built gate by gate.

    Each builder method checks its qubits and appends a (name, qubits,
    index) step to `gates`; a rotation also appends its angle to `angles`,
    at that index. So `run_plan(c.num_qubits, c.gates, c.angles, rows)`
    runs the circuit, as `run_circuit` does.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        self.gates: list[tuple[str, tuple[int, ...], int | None]] = []
        self.angles: list[float] = []

    def _add(self, name: str, qubits, angle: float | None = None) -> None:
        qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {qubits}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        index = None
        if name in _ROTATIONS:
            self.angles.append(float(angle))
            index = len(self.angles) - 1
        self.gates.append((name, qubits, index))

    def h(self, qubit: int) -> None:
        self._add("h", (qubit,))

    def x(self, qubit: int) -> None:
        self._add("x", (qubit,))

    def rx(self, qubit: int, angle: float) -> None:
        self._add("rx", (qubit,), angle)

    def ry(self, qubit: int, angle: float) -> None:
        self._add("ry", (qubit,), angle)

    def rz(self, qubit: int, angle: float) -> None:
        self._add("rz", (qubit,), angle)

    def cnot(self, control: int, target: int) -> None:
        self._add("cnot", (control, target))


def run_plan(num_qubits: int, plan: Plan, theta, amplitudes) -> np.ndarray:
    """Apply the steps of `plan`, each rotation at theta[index], in order
    to every row of `amplitudes`, an array whose last axis has length
    2**num_qubits; returns the results as a new array.

    The one gate loop: each step is one call of a backend kernel, with a
    single-qubit gate's entries from `_entries`. No qubit is checked, and
    no row's norm.
    """
    angles = np.asarray(theta, dtype=float).tolist()
    buf = np.array(amplitudes, dtype=complex)
    if buf.ndim == 0 or buf.shape[-1] != 1 << num_qubits:
        raise ValueError(f"amplitude rows of shape {buf.shape} do not fit "
                         f"{num_qubits} qubits")
    for name, qubits, p in plan:
        if name == "cnot":
            backend.apply_cnot(buf, num_qubits, qubits[0], qubits[1])
        else:
            backend.apply_single_qubit(buf, num_qubits, qubits[0], *_entries(
                name, None if p is None else angles[p]))
    return buf


PairedPlan = tuple[tuple[str, int | None, tuple[tuple[int, int], ...]], ...]


def pair_plan(num_qubits: int, plan: Plan) -> PairedPlan:
    """`plan` for `plan_state`: each step's qubits replaced by the pairs of
    amplitude indices (i, j) its gate acts on, read once per plan.

    A single-qubit gate on qubit q mixes each i whose bit for q is 0 with
    j = i plus that bit; a cnot swaps each i whose control bit is 1 and
    target bit 0 with j = i plus the target bit.
    """
    dim = 1 << num_qubits
    paired = []
    for name, qubits, p in plan:
        bits = [1 << (num_qubits - 1 - q) for q in qubits]
        target = bits[-1]
        control = bits[0] if name == "cnot" else 0
        pairs = tuple((i, i | target) for i in range(dim)
                      if not i & target and i & control == control)
        paired.append((name, p, pairs))
    return tuple(paired)


def plan_state(num_qubits: int, paired: PairedPlan, theta) -> np.ndarray:
    """The plan `paired` was made from, run at `theta` on |0...0>, in plain
    Python complex arithmetic on a list of amplitudes.

    For an unbatched state of a few qubits this avoids numpy's fixed cost
    per kernel call. The rotation entries are `run_plan`'s (`_entries`);
    the sums are not fused multiply-adds as in numpy's complex multiply, so
    the result matches `run_plan` to rounding, not bit for bit.
    """
    angles = np.asarray(theta, dtype=float).tolist()
    amps = [0j] * (1 << num_qubits)
    amps[0] = 1 + 0j
    for name, p, pairs in paired:
        if name == "cnot":
            for i, j in pairs:
                amps[i], amps[j] = amps[j], amps[i]
            continue
        m00, m01, m10, m11 = _entries(name, None if p is None else angles[p])
        for i, j in pairs:
            a, b = amps[i], amps[j]
            amps[i] = m00 * a + m01 * b
            amps[j] = m10 * a + m11 * b
    return np.array(amps)


def run_circuit(circuit: Circuit, initial: Statevector | None = None) -> Statevector:
    """Run the circuit's plan at its angles on `initial` (default |0...0>)."""
    if initial is None:
        initial = Statevector.zero(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(f"state has {initial.num_qubits} qubits, "
                         f"circuit has {circuit.num_qubits}")
    return Statevector(run_plan(circuit.num_qubits, circuit.gates, circuit.angles,
                                initial.amplitudes))


def light_cone(num_qubits: int, plan: Plan, qubits) -> tuple[tuple[int, ...], Plan]:
    """The backward light cone of `qubits` through `plan`.

    Walks the steps from last to first, keeps each step that touches the
    cone, adds that step's qubits to the cone, and drops every other step.
    Returns the cone's qubits in register order and a plan on them that
    holds the kept steps in their order, renumbered so that cone qubit i is
    its qubit i.

    A dropped step acts only on qubits that no later kept step reaches, so
    it cannot change any observable on `qubits`. On an input that is a
    product of the cone's state and the rest, the returned plan run on the
    cone's factors therefore gives the same expectation of any Pauli
    string on `qubits` as the whole plan, at any theta (Farhi, Goldstone &
    Gutmann, arXiv:1411.4028).
    """
    cone = set()
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits} qubits")
        cone.add(int(q))
    kept = []
    for step in reversed(plan):
        if cone.intersection(step[1]):
            cone.update(step[1])
            kept.append(step)
    order = tuple(sorted(cone))
    index = {q: i for i, q in enumerate(order)}
    return order, tuple((name, tuple(index[q] for q in step_qubits), p)
                        for name, step_qubits, p in reversed(kept))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit (column i = circuit applied to |i>)."""
    return run_plan(circuit.num_qubits, circuit.gates, circuit.angles,
                    np.eye(1 << circuit.num_qubits)).T


def apply_pauli(amplitudes: np.ndarray, digits) -> np.ndarray:
    """P|v> as a new array, for the Pauli string with the given base-4
    digits (one per qubit) and the amplitudes of |v>."""
    buf = np.array(amplitudes, dtype=complex)
    for qubit, d in enumerate(digits):
        if d:
            m = pauli.SIGMA[d]
            backend.apply_single_qubit(buf, len(digits), qubit,
                                       m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return buf


def expectation(state: Statevector, label: str) -> float:
    """<state| P |state> for the Pauli string with the given label, e.g. "ZI"."""
    digits = pauli.PauliString.from_label(label).digits
    if len(digits) != state.num_qubits:
        raise ValueError(f"label {label!r} has {len(digits)} qubits, "
                         f"state has {state.num_qubits}")
    value = np.vdot(state.amplitudes, apply_pauli(state.amplitudes, digits))
    return float(value.real)


def ancilla_estimate(p0, shots: int | None = None, rng=None):
    """The Hadamard-test estimate 2 P(0) - 1 from the ancilla's probability
    p0 of reading 0, or from an array of them.

    Exact mode (shots=None) uses p0 itself; sampled mode draws `shots`
    Bernoulli trials per probability, in order, from one generator.
    """
    if shots is None:
        return 2.0 * p0 - 1.0
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    zeros = np.random.default_rng(rng).binomial(shots, np.clip(p0, 0.0, 1.0))
    return 2.0 * zeros / shots - 1.0


def hadamard_test(matrix: np.ndarray, part: str = "real",
                  shots: int | None = None, rng=None) -> float:
    """Estimate Re or Im of <0...0| U |0...0> by the Hadamard-test law.

    The ancilla protocol (H, controlled-U, S-adjoint for the imaginary part,
    H) reads 0 with probability P(0) = (1 + v)/2, v = Re<0|U|0> or Im<0|U|0>.
    The estimate is `ancilla_estimate` of that P(0), as in `vqls.cost`: v
    itself in exact mode (shots=None), `shots` Bernoulli trials otherwise.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.size == 0:
        raise ValueError(f"matrix of shape {u.shape} is empty")
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within 1e-10")
    dim = u.shape[0]
    if dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    if part not in ("real", "imaginary"):
        raise ValueError(f"part must be 'real' or 'imaginary', got {part!r}")
    v = u[0, 0].real if part == "real" else u[0, 0].imag
    return float(ancilla_estimate((1.0 + v) / 2.0, shots, rng))
