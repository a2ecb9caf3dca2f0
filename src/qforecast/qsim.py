"""Small dense statevector simulator.

Conventions:
    * Qubit 0 is the leftmost tensor factor, i.e. the most significant bit
      of the basis index: |q0 q1 ... q_{k-1}>.
    * States are complex128 and unit norm; operations return new states.
    * Gates are h, x, rx, ry, rz and cnot.
    * A circuit runs from its Gate objects (`run_batch`, `run_circuit`), or
      from its plan (`plan_of`, `run_plan`): its structure read once, with
      the angles bound at each run and no Gate built, for a variational
      circuit run at many thetas. Both apply each gate with one of the two
      in-place numpy kernels of qforecast.backend, to a batch of states.
    * `plan_state` runs a paired plan (`pair_plan`) on |0...0> alone, in
      plain Python arithmetic: on a few qubits numpy's fixed cost per call
      outweighs the work. It equals `run_plan` to rounding, not bit for
      bit. The VQLS ansatz state runs this way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import backend, pauli

ATOL = 1e-10
NORM_ATOL = 1e-8

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)


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
    one source of the numbers `Gate.matrix` holds and `run_plan` and
    `plan_state` apply."""
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
        self._hold(np.array(self.amplitudes, dtype=complex))

    def _hold(self, amps: np.ndarray) -> None:
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude length {amps.size} is not a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", amps.size.bit_length() - 1)

    @classmethod
    def _of_buffer(cls, amps: np.ndarray) -> "Statevector":
        """The state over `amps` itself, not a copy, for a complex128 buffer
        that nothing else holds; checked and made read-only as usual."""
        state = object.__new__(cls)
        state._hold(amps)
        return state

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


@dataclass(frozen=True)
class Gate:
    """One gate application: a name, target qubits, and an angle.

    Names: h, x, rx, ry, rz on one qubit, and cnot on (control, target).
    Rotations carry `angle`. A single-qubit gate builds its `entries` m00,
    m01, m10, m11 and its read-only 2x2 `matrix` of them once, at
    construction; a cnot has neither.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = field(init=False, default=None, repr=False,
                                      compare=False)
    entries: tuple | None = field(init=False, default=None, repr=False,
                                  compare=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.qubits}")
        if self.name == "cnot":
            if len(self.qubits) != 2:
                raise ValueError("cnot takes (control, target)")
            return
        if self.name in _FIXED_1Q:
            if len(self.qubits) != 1 or self.angle is not None:
                raise ValueError(f"{self.name} takes one qubit and no angle")
        elif self.name in _ROTATIONS:
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError(f"{self.name} takes one qubit and an angle")
            object.__setattr__(self, "angle", float(self.angle))
        else:
            raise ValueError(f"unknown gate {self.name!r}")
        entries = _entries(self.name, self.angle)
        matrix = np.array(entries, dtype=complex).reshape(2, 2)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "entries", entries)


class Circuit:
    """Ordered gate list on a fixed qubit count. Build, then run."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = int(num_qubits)
        self.gates: list[Gate] = []

    def add(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        self.gates.append(gate)

    def h(self, qubit: int) -> None:
        self.add(Gate("h", (qubit,)))

    def x(self, qubit: int) -> None:
        self.add(Gate("x", (qubit,)))

    def rx(self, qubit: int, angle: float) -> None:
        self.add(Gate("rx", (qubit,), angle=angle))

    def ry(self, qubit: int, angle: float) -> None:
        self.add(Gate("ry", (qubit,), angle=angle))

    def rz(self, qubit: int, angle: float) -> None:
        self.add(Gate("rz", (qubit,), angle=angle))

    def cnot(self, control: int, target: int) -> None:
        self.add(Gate("cnot", (control, target)))


def _run(num_qubits: int, steps, amplitudes) -> np.ndarray:
    """The one gate loop: apply each (qubits, entries) step, with entries
    None for a cnot as in `Gate`, to a copy of `amplitudes`, whose rows
    must have length 2**num_qubits."""
    buf = np.array(amplitudes, dtype=complex)
    if buf.ndim == 0 or buf.shape[-1] != 1 << num_qubits:
        raise ValueError(f"amplitude rows of shape {buf.shape} do not fit "
                         f"{num_qubits} qubits")
    for qubits, entries in steps:
        if entries is None:
            backend.apply_cnot(buf, num_qubits, qubits[0], qubits[1])
        else:
            backend.apply_single_qubit(buf, num_qubits, qubits[0], *entries)
    return buf


def run_batch(circuit: Circuit, amplitudes) -> np.ndarray:
    """Apply all gates in order to every row of `amplitudes`, an array whose
    last axis has length 2**num_qubits; returns the results as a new array.
    Unlike `run_circuit`, it does not check that each row has unit norm."""
    return _run(circuit.num_qubits, ((g.qubits, g.entries) for g in circuit.gates),
                amplitudes)


Plan = tuple[tuple[str, tuple[int, ...], int | None], ...]


def plan_of(circuit: Circuit) -> Plan:
    """A circuit's structure apart from its angles, for `run_plan`.

    `circuit` must be built with each rotation's angle equal to the index
    of the parameter it reads (theta_p = p). Each step is a gate's (name,
    qubits, parameter index), in circuit order, with index None for a gate
    that takes no angle.
    """
    return tuple((g.name, g.qubits, None if g.angle is None else int(g.angle))
                 for g in circuit.gates)


def run_plan(num_qubits: int, plan: Plan, theta, amplitudes) -> np.ndarray:
    """`run_batch` of the circuit `plan` was read from, built at `theta`.

    Each rotation's entries come from the function `Gate` builds its
    entries with, at theta[index], so the result is bitwise the same; but
    no Gate or Circuit is built, and no qubit is checked again.
    """
    angles = np.asarray(theta, dtype=float).tolist()
    return _run(num_qubits, (
        (qubits, None if name == "cnot" else
         _entries(name, None if p is None else angles[p]))
        for name, qubits, p in plan), amplitudes)


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
    """Apply all gates in order to `initial` (default |0...0>)."""
    if initial is None:
        initial = Statevector.zero(circuit.num_qubits)
    if initial.num_qubits != circuit.num_qubits:
        raise ValueError(f"state has {initial.num_qubits} qubits, "
                         f"circuit has {circuit.num_qubits}")
    return Statevector._of_buffer(run_batch(circuit, initial.amplitudes))


def light_cone(circuit: Circuit, qubits) -> tuple[tuple[int, ...], Circuit]:
    """The backward light cone of `qubits` through `circuit`.

    Walks the gates from last to first, keeps each gate that touches the
    cone, adds that gate's qubits to the cone, and drops every other gate.
    Returns the cone's qubits in register order and a circuit on them that
    holds the kept gates in their order, renumbered so that cone qubit i is
    its qubit i.

    A dropped gate acts only on qubits that no later kept gate reaches, so
    it cannot change any observable on `qubits`. On an input that is a
    product of the cone's state and the rest, the returned circuit run on
    the cone's factors therefore gives the same expectation of any Pauli
    string on `qubits` as the whole circuit (Farhi, Goldstone & Gutmann,
    arXiv:1411.4028).
    """
    cone = set()
    for q in qubits:
        if not 0 <= q < circuit.num_qubits:
            raise ValueError(f"qubit {q} out of range for {circuit.num_qubits} qubits")
        cone.add(int(q))
    kept = []
    for gate in reversed(circuit.gates):
        if cone.intersection(gate.qubits):
            cone.update(gate.qubits)
            kept.append(gate)
    order = tuple(sorted(cone))
    index = {q: i for i, q in enumerate(order)}
    restricted = Circuit(len(order))
    for gate in reversed(kept):
        restricted.add(replace(gate, qubits=tuple(index[q] for q in gate.qubits)))
    return order, restricted


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit (column i = circuit applied to |i>)."""
    return run_batch(circuit, np.eye(1 << circuit.num_qubits)).T


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
    """Estimate Re or Im of <0...0| U |0...0> with one ancilla.

    Ancilla (qubit 0) protocol: H, controlled-U, optional S-adjoint for the
    imaginary part, H, then measure. P(ancilla=0) = (1 + Re<0|U|0>)/2, and
    the returned estimator is 2 P(0) - 1. Exact mode (shots=None) uses the
    true probability; sampled mode draws `shots` Bernoulli trials.
    """
    u = np.asarray(matrix, dtype=complex)
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within 1e-10")
    if part not in ("real", "imaginary"):
        raise ValueError(f"part must be 'real' or 'imaginary', got {part!r}")
    dim = u.shape[0]
    # Ancilla is the new MSB, so the register splits into contiguous halves.
    buf = np.zeros(2 * dim, dtype=complex)
    buf[0] = 1.0
    num_qubits = (2 * dim).bit_length() - 1
    backend.apply_single_qubit(buf, num_qubits, 0,
                               _H[0, 0], _H[0, 1], _H[1, 0], _H[1, 1])
    buf[dim:] = u @ buf[dim:]
    if part == "imaginary":
        backend.apply_single_qubit(buf, num_qubits, 0,
                                   _SDG[0, 0], _SDG[0, 1], _SDG[1, 0], _SDG[1, 1])
    backend.apply_single_qubit(buf, num_qubits, 0,
                               _H[0, 0], _H[0, 1], _H[1, 0], _H[1, 1])
    p0 = float(np.sum(np.abs(buf[:dim]) ** 2))
    return float(ancilla_estimate(p0, shots, rng))
