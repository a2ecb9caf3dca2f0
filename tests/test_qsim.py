"""Statevector simulator tests against explicit kron-product oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforecast import qsim
from qforecast.qsim import (Circuit, Gate, Statevector, ancilla_estimate, apply_pauli,
                            circuit_unitary, expectation, hadamard_test, light_cone,
                            pair_plan, plan_of, plan_state, run_batch, run_circuit,
                            run_plan)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)


def kron_all(*mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def embed(mat2, qubit, num_qubits):
    """Dense embedding of a 2x2 gate, qubit 0 leftmost."""
    mats = [I2] * num_qubits
    mats[qubit] = mat2
    return kron_all(*mats)


CNOT_01 = np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=complex)


def apply_one(state, gate):
    """Run a one-gate circuit on `state`."""
    circuit = Circuit(state.num_qubits)
    circuit.add(gate)
    return run_circuit(circuit, initial=state)


def random_state(rng, num_qubits):
    v = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(v / np.linalg.norm(v))


def count_constructions(monkeypatch):
    """Count every Gate, Circuit and Statevector built from now on."""
    built = {"Gate": 0, "Circuit": 0, "Statevector": 0}

    def counting(kind, method):
        def counted(self, *args):
            built[kind] += 1
            return method(self, *args)
        return counted

    # a Statevector holds its amplitudes through _hold, however it is built
    for cls, name in ((Gate, "__post_init__"), (Circuit, "__init__"),
                      (Statevector, "_hold")):
        monkeypatch.setattr(cls, name, counting(cls.__name__, getattr(cls, name)))
    return built


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStatevector:
    def test_zero_state(self):
        s = Statevector.zero(3)
        assert s.num_qubits == 3
        assert s.amplitudes[0] == 1.0
        assert np.all(s.amplitudes[1:] == 0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Statevector(np.ones(3) / math.sqrt(3))

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="norm"):
            Statevector(np.array([bad, 0.0]))

    def test_basis_state_bounds(self):
        with pytest.raises(ValueError):
            Statevector.basis_state(2, 4)

    def test_amplitudes_read_only(self):
        s = Statevector.zero(2)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestQubitOrdering:
    """Qubit 0 is the most significant basis-index bit."""

    def test_x_on_qubit_zero(self):
        s = apply_one(Statevector.zero(2), Gate("x", (0,)))
        assert np.allclose(s.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_x_on_qubit_one(self):
        s = apply_one(Statevector.zero(2), Gate("x", (1,)))
        assert np.allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_cnot_msb_control(self):
        # |10> -> |11>
        s = apply_one(Statevector.basis_state(2, 2), Gate("cnot", (0, 1)))
        assert np.allclose(s.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_cnot_unaffected_when_control_clear(self):
        s = apply_one(Statevector.basis_state(2, 1), Gate("cnot", (0, 1)))
        assert np.allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-12)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        s = apply_one(Statevector.zero(1), Gate("h", (0,)))
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                           atol=1e-12)

    def test_ry_pi_flips(self):
        s = apply_one(Statevector.zero(1), Gate("ry", (0,), angle=math.pi))
        assert np.allclose(s.amplitudes, [0, 1], atol=1e-12)

    def test_input_state_unchanged(self):
        s = Statevector.zero(1)
        apply_one(s, Gate("x", (0,)))
        assert s.amplitudes[0] == 1.0

    def test_out_of_range_qubit(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.h(2)

    def test_rejects_unknown_gate(self):
        for name, qubits in (("swap", (0, 1)), ("sdg", (0,)), ("unitary", (0,))):
            with pytest.raises(ValueError, match="unknown gate"):
                Gate(name, qubits)

    def test_against_embedded_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            q = int(rng.integers(0, k))
            theta = float(rng.uniform(-math.pi, math.pi))
            name, mat = [("h", H), ("x", X), ("rx", rx(theta)),
                         ("ry", ry(theta)), ("rz", rz(theta))][int(rng.integers(5))]
            gate = Gate(name, (q,), angle=theta if name.startswith("r") else None)
            assert np.allclose(gate.matrix, mat, atol=1e-15)
            assert not gate.matrix.flags.writeable
            s = random_state(rng, k)
            got = apply_one(s, gate).amplitudes
            want = embed(mat, q, k) @ s.amplitudes
            assert np.allclose(got, want, atol=1e-12)

    def test_cnot_against_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            control, target = rng.choice(k, size=2, replace=False)
            gate = Gate("cnot", (int(control), int(target)))
            s = random_state(rng, k)
            got = apply_one(s, gate).amplitudes
            # oracle: permute basis indices directly
            want = np.empty_like(s.amplitudes)
            for i in range(1 << k):
                cbit = (i >> (k - 1 - control)) & 1
                j = i ^ (cbit << (k - 1 - target))
                want[j] = s.amplitudes[i]
            assert np.allclose(got, want, atol=1e-12)


class TestRunCircuit:
    def test_empty_circuit_identity(self):
        rng = np.random.default_rng(0)
        s = random_state(rng, 3)
        out = run_circuit(Circuit(3), s)
        assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-14)

    def test_bell_state(self):
        c = Circuit(2)
        c.h(0)
        c.cnot(0, 1)
        out = run_circuit(c)
        r = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, [r, 0, 0, r], atol=1e-12)

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            c = Circuit(k)
            for _ in range(50):
                kind = int(rng.integers(6))
                q = int(rng.integers(k))
                theta = float(rng.uniform(-math.pi, math.pi))
                if kind == 0:
                    c.h(q)
                elif kind == 1:
                    c.x(q)
                elif kind == 2:
                    c.rx(q, theta)
                elif kind == 3:
                    c.ry(q, theta)
                elif kind == 4:
                    c.rz(q, theta)
                elif k > 1:
                    t = int((q + 1 + rng.integers(k - 1)) % k)
                    c.cnot(q, t)
            out = run_circuit(c, random_state(rng, k))
            assert abs(out.norm() - 1.0) <= 1e-10

    def test_mismatched_state_size(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(2), Statevector.zero(3))

    def test_output_is_a_read_only_copy(self):
        s = random_state(np.random.default_rng(1), 2)
        out = run_circuit(Circuit(2), s)
        assert out.amplitudes.tobytes() == s.amplitudes.tobytes()
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        assert not out.amplitudes.flags.writeable

    def test_circuit_unitary_matches_kron_oracle(self):
        c = Circuit(2)
        c.ry(0, 0.3)
        c.rz(1, -0.8)
        c.cnot(0, 1)
        c.h(1)
        want = kron_all(I2, H) @ CNOT_01 @ kron_all(ry(0.3), rz(-0.8))
        assert np.allclose(circuit_unitary(c), want, atol=1e-12)


class TestRunBatch:
    def test_each_row_equals_run_circuit(self):
        rng = np.random.default_rng(12)
        c = Circuit(3)
        c.h(0)
        c.cnot(0, 2)
        c.rx(1, 0.7)
        c.cnot(2, 1)
        c.rz(2, -1.1)
        states = [random_state(rng, 3) for _ in range(4)]
        rows = np.array([s.amplitudes for s in states])
        out = run_batch(c, rows)
        for row, state in zip(out, states):
            assert row.tobytes() == run_circuit(c, state).amplitudes.tobytes()
        assert rows.tobytes() == np.array([s.amplitudes for s in states]).tobytes()

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="do not fit 3 qubits"):
            run_batch(Circuit(3), np.zeros((2, 4)))


@st.composite
def planned_circuits(draw):
    """A circuit of 1-6 qubits with every gate kind whose rotations each
    read one of P parameters, built at theta_p = p and at random theta,
    with that theta and a batch of random rows."""
    n = draw(st.integers(1, 6))
    angle = st.floats(-4 * math.pi, 4 * math.pi)
    theta = np.array(draw(st.lists(angle, min_size=1, max_size=8)))
    indexed, bound = Circuit(n), Circuit(n)
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(["h", "x", "rx", "ry", "rz"] + ["cnot"] * (n > 1)))
        if name == "cnot":
            pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            indexed.cnot(*pair)
            bound.cnot(*pair)
            continue
        q = draw(st.integers(0, n - 1))
        p = draw(st.integers(0, len(theta) - 1)) if name[0] == "r" else None
        indexed.add(Gate(name, (q,), None if p is None else p))
        bound.add(Gate(name, (q,), None if p is None else theta[p]))
    rows = draw(st.lists(st.lists(angle, min_size=2 << n, max_size=2 << n),
                         min_size=1, max_size=3))
    rows = np.array(rows)
    return indexed, bound, theta, rows[:, 0::2] + 1j * rows[:, 1::2]


class TestRunPlan:
    @given(case=planned_circuits())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_equals_run_batch_of_the_bound_circuit(self, case):
        indexed, bound, theta, rows = case
        plan = plan_of(indexed)
        assert [(name, qubits) for name, qubits, _ in plan] == [
            (g.name, g.qubits) for g in bound.gates]
        before = rows.tobytes()
        got = run_plan(indexed.num_qubits, plan, theta, rows)
        assert got.tobytes() == run_batch(bound, rows).tobytes()
        assert rows.tobytes() == before

    def test_builds_no_gate_circuit_or_statevector(self, monkeypatch):
        c = Circuit(2)
        c.ry(0, 1)
        c.cnot(0, 1)
        c.rz(1, 0)
        plan = plan_of(c)
        assert plan == (("ry", (0,), 1), ("cnot", (0, 1), None), ("rz", (1,), 0))
        built = count_constructions(monkeypatch)
        run_plan(2, plan, [0.3, -1.2], np.eye(4))
        assert built == {"Gate": 0, "Circuit": 0, "Statevector": 0}
        run_circuit(c)  # the counters see what they count
        assert built == {"Gate": 0, "Circuit": 0, "Statevector": 2}
        Circuit(1).h(0)
        assert built == {"Gate": 1, "Circuit": 1, "Statevector": 2}

    def test_rejects_rows_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="do not fit 3 qubits"):
            run_plan(3, (), [], np.zeros((2, 4)))


class TestPlanState:
    @given(case=planned_circuits())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_equals_run_plan_on_the_zero_state(self, case):
        indexed, _, theta, _ = case
        n = indexed.num_qubits
        plan = plan_of(indexed)
        zero = np.zeros(1 << n, dtype=complex)
        zero[0] = 1.0
        got = plan_state(n, pair_plan(n, plan), theta)
        assert got.dtype == complex and got.shape == zero.shape
        # plain Python sums are not fused multiply-adds as numpy's are
        assert np.max(np.abs(got - run_plan(n, plan, theta, zero))) <= 1e-12

    def test_pairs_follow_the_qubit_order(self):
        # qubit 0 is the most significant bit of the index
        plan = (("ry", (0,), 0), ("rz", (2,), 1), ("cnot", (1, 0), None))
        assert pair_plan(3, plan) == (
            ("ry", 0, ((0, 4), (1, 5), (2, 6), (3, 7))),
            ("rz", 1, ((0, 1), (2, 3), (4, 5), (6, 7))),
            ("cnot", None, ((2, 6), (3, 7))))


@st.composite
def circuits_on_product_states(draw):
    """A circuit of 1-6 qubits with every gate kind, and one unit 2-vector
    per qubit whose Kronecker product is the input state."""
    n = draw(st.integers(1, 6))
    angle = st.floats(-2 * math.pi, 2 * math.pi)
    circuit = Circuit(n)
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(["h", "x", "rx", "ry", "rz"] + ["cnot"] * (n > 1)))
        if name == "cnot":
            circuit.cnot(*draw(st.lists(st.integers(0, n - 1), min_size=2,
                                        max_size=2, unique=True)))
        else:
            q = draw(st.integers(0, n - 1))
            circuit.add(Gate(name, (q,), draw(angle) if name[0] == "r" else None))
    factors = [np.array([math.cos(a), cmath.exp(1j * b) * math.sin(a)])
               for a, b in draw(st.lists(st.tuples(angle, angle),
                                         min_size=n, max_size=n))]
    return circuit, factors, draw(st.integers(0, n - 1))


def z_label(num_qubits, qubit):
    return "".join("Z" if i == qubit else "I" for i in range(num_qubits))


class TestLightCone:
    def test_keeps_the_gates_that_reach_the_readout(self):
        c = Circuit(5)
        c.cnot(1, 2)
        c.ry(4, 0.3)
        c.h(3)
        c.cnot(2, 4)
        c.h(0)
        cone, sub = light_cone(c, [4])
        assert cone == (1, 2, 4)
        assert [(g.name, g.qubits, g.angle) for g in sub.gates] == [
            ("cnot", (0, 1), None), ("ry", (2,), 0.3), ("cnot", (1, 2), None)]

    def test_rejects_a_qubit_outside_the_register(self):
        with pytest.raises(ValueError, match="qubit 3 out of range"):
            light_cone(Circuit(3), [3])

    @given(case=circuits_on_product_states())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_cone_expectation_equals_the_whole_circuit(self, case):
        circuit, factors, q = case
        whole = run_circuit(circuit, Statevector(kron_all(*factors)[0]))
        want = expectation(whole, z_label(circuit.num_qubits, q))
        cone, sub = light_cone(circuit, [q])
        part = run_circuit(sub, Statevector(kron_all(*[factors[i] for i in cone])[0]))
        assert abs(expectation(part, z_label(len(cone), cone.index(q))) - want) <= 1e-12


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(Statevector.zero(1), "Z") == pytest.approx(1.0)

    def test_z_on_plus(self):
        plus = apply_one(Statevector.zero(1), Gate("h", (0,)))
        assert expectation(plus, "Z") == pytest.approx(0.0, abs=1e-12)

    def test_z_after_ry_is_cosine(self):
        for theta in (0.0, 0.4, math.pi / 2, 2.1):
            s = apply_one(Statevector.zero(1), Gate("ry", (0,), angle=theta))
            assert expectation(s, "Z") == pytest.approx(math.cos(theta), abs=1e-12)

    def test_multi_qubit_label(self):
        c = Circuit(2)
        c.h(0)
        c.cnot(0, 1)
        bell = run_circuit(c)
        assert expectation(bell, "ZI") == pytest.approx(0.0, abs=1e-12)
        assert expectation(bell, "ZZ") == pytest.approx(1.0, abs=1e-12)
        assert expectation(bell, "XX") == pytest.approx(1.0, abs=1e-12)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            digits = rng.integers(0, 4, size=k)
            label = "".join("IXYZ"[d] for d in digits)
            s = random_state(rng, k)
            mat = kron_all(*[[I2, X, Y, Z][d] for d in digits])
            assert np.allclose(apply_pauli(s.amplitudes, digits), mat @ s.amplitudes,
                               atol=1e-12)
            want = np.vdot(s.amplitudes, mat @ s.amplitudes).real
            assert expectation(s, label) == pytest.approx(want, abs=1e-10)
            assert -1.0 - 1e-12 <= expectation(s, label) <= 1.0 + 1e-12

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(Statevector.zero(2), "Z")


def prepare_state(amplitudes: np.ndarray) -> np.ndarray:
    """The oracle's unitary whose first column is the given unit vector.

    Householder construction: with a = arg(v[0]) and u = v - e^{ia} e0,
    U = e^{ia} (I - 2 u u^dag / u^dag u) maps e0 to v exactly.
    """
    v = np.array(amplitudes, dtype=complex)
    if abs(np.linalg.norm(v) - 1.0) > qsim.NORM_ATOL:
        raise ValueError("amplitudes are not unit norm")
    phase = cmath.exp(1j * cmath.phase(v[0])) if abs(v[0]) > 0 else 1.0
    u = v.copy()
    u[0] -= phase
    uu = np.vdot(u, u).real
    if uu < 1e-24:
        return phase * np.eye(v.size, dtype=complex)
    return phase * (np.eye(v.size, dtype=complex) - 2.0 * np.outer(u, u.conj()) / uu)


class TestPrepareState:
    def test_basis_vector_gives_identity(self):
        u = prepare_state(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_uniform_two_dim(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        u = prepare_state(v)
        assert np.allclose(u[:, 0], v, atol=1e-12)
        assert qsim.is_unitary(u)

    def test_random_vectors(self):
        rng = np.random.default_rng(17)
        for dim in (2, 4, 8, 16):
            for _ in range(10):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v /= np.linalg.norm(v)
                u = prepare_state(v)
                assert np.max(np.abs(u[:, 0] - v)) <= 1e-10
                assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            prepare_state(np.array([1.0, 1.0]))

    def test_phase_of_leading_amplitude(self):
        v = np.array([-1.0, 0.0])
        u = prepare_state(v)
        assert np.allclose(u[:, 0], v, atol=1e-12)


class TestHadamardTest:
    def test_identity(self):
        assert hadamard_test(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_x_gate(self):
        assert hadamard_test(X) == pytest.approx(0.0, abs=1e-12)

    def test_ry_real_part(self):
        for theta in (0.0, math.pi / 2, math.pi, 1.3):
            got = hadamard_test(ry(theta))
            assert got == pytest.approx(math.cos(theta / 2), abs=1e-12)

    def test_rz_imaginary_part(self):
        for theta in (0.7, math.pi / 2, -1.1):
            got = hadamard_test(rz(theta), part="imaginary")
            assert got == pytest.approx(-math.sin(theta / 2), abs=1e-12)

    def test_agrees_with_inner_product(self):
        # exact-mode hadamard_test(prepare(b)^dag U) == Re <b| U |0...0>
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            dim = 1 << k
            b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            b /= np.linalg.norm(b)
            u = random_unitary(rng, dim)
            composite = prepare_state(b).conj().T @ u
            want = complex(np.vdot(b, u[:, 0]))
            assert hadamard_test(composite) == pytest.approx(want.real, abs=1e-10)
            assert hadamard_test(composite, part="imaginary") == pytest.approx(
                want.imag, abs=1e-10)

    def test_sampled_mode_converges(self):
        rng = np.random.default_rng(4)
        exact = hadamard_test(ry(0.9))
        sampled = hadamard_test(ry(0.9), shots=200_000, rng=rng)
        assert abs(sampled - exact) < 0.01

    def test_sampled_mode_deterministic_with_seed(self):
        a = hadamard_test(ry(0.9), shots=1000, rng=123)
        b = hadamard_test(ry(0.9), shots=1000, rng=123)
        assert a == b

    def test_outcomes_of_many_tests_are_drawn_in_order(self):
        p0 = np.array([0.3, 1.0, 0.0, 0.85, 0.5])
        assert np.array_equal(ancilla_estimate(p0), 2.0 * p0 - 1.0)
        one_by_one = np.random.default_rng(9)
        want = [ancilla_estimate(p, shots=100, rng=one_by_one) for p in p0]
        assert np.array_equal(ancilla_estimate(p0, shots=100, rng=9), want)
        assert want[1] == 1.0 and want[2] == -1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hadamard_test(np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            hadamard_test(X, part="modulus")
        with pytest.raises(ValueError):
            hadamard_test(X, shots=0)
