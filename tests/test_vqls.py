"""Variational linear solver tests: ansatz layout, cost, rescale, solve."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qforecast import qsim, vqls
from qforecast.linsys import build_windows, fit_scaler, normal_equations, predict_next
from qforecast.qsim import circuit_unitary
from qforecast.vqls import (AnsatzSpec, VqlsProblem, ansatz_plan, ansatz_state,
                            canonical_phase, cost, realign_to_real,
                            rescale, solve)
from test_pauli import pauli_matrix
from test_qsim import bind, count_constructions, prepare_state


def ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]).astype(complex)


CNOT_01 = np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, 1, 0]], dtype=complex)


def ansatz_circuit(spec, theta):
    """The ansatz as a Circuit: ansatz_plan's steps at theta."""
    return bind(qsim.Circuit(spec.num_qubits), ansatz_plan(spec), theta)


def easy_spd(rng, dim=4):
    """Random symmetric positive definite matrix with condition <= 10."""
    r = rng.uniform(-1, 1, size=(dim, dim))
    s = (r + r.T) / 2
    lam = np.linalg.eigvalsh(s)
    shift = max((lam[-1] - 10 * lam[0]) / 9,
                np.sum(np.abs(s), axis=1).max() - np.min(np.diag(s)) + 0.1)
    a = s + shift * np.eye(dim)
    b = rng.uniform(-1, 1, size=dim)
    while np.linalg.norm(b) < 0.1:
        b = rng.uniform(-1, 1, size=dim)
    return a, b


def dense_hadamard_cost(problem, theta, shots=None, rng=None):
    """The oracle: every Hadamard test of the cost run by qsim.hadamard_test
    on its dense unitary, built from the ansatz's circuit_unitary, a
    Householder prepare-b and Kronecker Pauli matrices."""
    rng = np.random.default_rng(rng)
    v = circuit_unitary(ansatz_circuit(AnsatzSpec.default(problem.num_qubits), theta))
    prep_adj = prepare_state(problem.b_state).conj().T
    alphas = [a for a, _ in problem.decomposition.terms]
    mats = [pauli_matrix(s) for _, s in problem.decomposition.terms]
    overlap = 0j
    for a, m in zip(alphas, mats):
        u = prep_adj @ m @ v
        overlap += a * complex(qsim.hadamard_test(u, "real", shots, rng),
                               qsim.hadamard_test(u, "imaginary", shots, rng))
    denom = 0.0
    for ai, mi in zip(alphas, mats):
        for aj, mj in zip(alphas, mats):
            denom += ai * aj * qsim.hadamard_test(v.conj().T @ mi @ mj @ v,
                                                  shots=shots, rng=rng)
    if denom <= 1e-12:
        return 1.0
    return float(1.0 - abs(overlap) ** 2 / denom)


@st.composite
def hadamard_cases(draw):
    """A complex Hermitian A, a weighted sum of up to 8 Pauli strings on 1-4
    qubits; a complex b; and a theta for the default ansatz."""
    k = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text("IXYZ", min_size=k, max_size=k),
                           min_size=1, max_size=8, unique=True))
    weight = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    a = sum(draw(weight) * pauli_matrix(label) for label in labels)
    parts = hnp.arrays(np.float64, 1 << k, elements=st.floats(-1.0, 1.0))
    b = draw(parts) + 1j * draw(parts)
    assume(np.linalg.norm(b) >= 0.1)
    theta = draw(hnp.arrays(np.float64, AnsatzSpec.default(k).num_parameters,
                            elements=st.floats(0.0, 2 * math.pi)))
    return VqlsProblem.from_system(a, b), theta


class TestAnsatzSpec:
    def test_parameter_counts(self):
        assert AnsatzSpec(2).num_parameters == 8
        assert AnsatzSpec(3).num_parameters == 18
        assert AnsatzSpec(4).num_parameters == 24

    def test_default_layers(self):
        assert AnsatzSpec.default(1).layers == 1
        assert AnsatzSpec.default(2).layers == 1
        assert AnsatzSpec.default(3).layers == 2
        assert AnsatzSpec.default(4).layers == 2

    def test_layers_follow_the_width(self):
        # the layer count is the width's, not a setting
        assert [AnsatzSpec(k).layers for k in range(1, 7)] == [1, 1, 2, 2, 2, 2]
        assert AnsatzSpec.default(3) == AnsatzSpec(3)
        with pytest.raises(TypeError):
            AnsatzSpec(3, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            AnsatzSpec(0)
        with pytest.raises(ValueError):
            ansatz_state(AnsatzSpec(2), np.zeros(7))


class TestAnsatzCircuit:
    def test_zero_theta_is_identity_on_zero_state(self):
        state = ansatz_state(AnsatzSpec(2), np.zeros(8))
        assert np.allclose(state, [1, 0, 0, 0], atol=1e-12)

    def test_two_qubit_gate_order_against_kron_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 2 * math.pi, size=8)
        got = circuit_unitary(ansatz_circuit(AnsatzSpec(2), t))
        first = np.kron(rz(t[1]) @ ry(t[0]), rz(t[3]) @ ry(t[2]))
        second = np.kron(rz(t[5]) @ ry(t[4]), rz(t[7]) @ ry(t[6]))
        assert np.allclose(got, second @ CNOT_01 @ first, atol=1e-12)

    def test_gate_counts(self):
        assert len(ansatz_plan(AnsatzSpec(2))) == 9
        assert len(ansatz_plan(AnsatzSpec(4))) == 30

    def test_state_is_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = rng.uniform(0, 2 * math.pi, size=18)
            state = ansatz_state(AnsatzSpec(3), t)
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


def oracle_ansatz_state(spec, theta):
    """The ansatz as a Circuit, run by qsim.run_circuit from the
    Statevector |0...0> with the numpy kernels, not plan_state's Python
    arithmetic."""
    return np.array(qsim.run_circuit(ansatz_circuit(spec, theta)).amplitudes)


class TestAnsatzPlan:
    @given(k=st.integers(1, 6), data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_state_equals_the_circuit_oracle(self, k, data):
        spec = AnsatzSpec(k)
        theta = data.draw(hnp.arrays(np.float64, spec.num_parameters,
                                     elements=st.floats(-4 * math.pi, 4 * math.pi)))
        got = ansatz_state(spec, theta)
        # plain Python sums are not fused multiply-adds as numpy's are
        assert np.max(np.abs(got - oracle_ansatz_state(spec, theta))) <= 1e-12
        assert got.flags.writeable

    def test_plan_is_read_once_per_spec(self, monkeypatch):
        built = []

        def counting(spec):
            built.append(spec)
            return ansatz_plan(spec)

        monkeypatch.setattr(vqls, "ansatz_plan", counting)
        vqls._paired_plan.cache_clear()
        try:
            rng = np.random.default_rng(2)
            for spec in (AnsatzSpec(2), AnsatzSpec(3)) * 2:
                for _ in range(3):
                    ansatz_state(spec, rng.uniform(0, 2 * math.pi, spec.num_parameters))
            assert built == [AnsatzSpec(2), AnsatzSpec(3)]
        finally:
            vqls._paired_plan.cache_clear()

    def test_wrong_length_theta_raises_the_same_error(self):
        spec = AnsatzSpec(2)
        p = VqlsProblem.from_system(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        message = re.escape("theta has shape (7,), expected (8,)")
        for call in (lambda t: ansatz_state(spec, t), lambda t: cost(p, t),
                     lambda t: cost(p, t, estimator="hadamard")):
            with pytest.raises(ValueError, match=message):
                call(np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, bad):
        theta = np.zeros(8)
        theta[3] = bad
        p = VqlsProblem.from_system(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        for call in (lambda: ansatz_state(AnsatzSpec(2), theta),
                     lambda: cost(p, theta), lambda: cost(p, theta, estimator="hadamard")):
            with pytest.raises(ValueError, match="theta contains non-finite values"):
                call()

    @pytest.mark.parametrize("estimator", ["analytic", "hadamard"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_solve_equals_the_oracle_solve(self, monkeypatch, seed, estimator):
        # criterion 04's systems 0 and 1, on a short budget; the search may
        # take another path than with the oracle state, so each cost it
        # sees is checked at its own theta
        p = VqlsProblem.from_system(*criterion_04_system(seed))
        real_cost = vqls.cost
        visited = []

        def spy(problem, theta, **kwargs):
            value = real_cost(problem, theta, **kwargs)
            visited.append((np.array(theta), value))
            return value

        monkeypatch.setattr(vqls, "cost", spy)
        got = solve(p, seed=seed, restarts=2, max_iters=150, estimator=estimator)
        assert [value for _, value in visited] == got.cost_trace
        assert got.evaluations == 300
        monkeypatch.setattr(vqls, "ansatz_state", oracle_ansatz_state)
        for theta, value in visited:
            assert abs(value - real_cost(p, theta, estimator=estimator)) <= 1e-12

    def test_cost_builds_no_gate_or_statevector(self, monkeypatch):
        # after the first call has read the plan, an evaluation is arrays only
        p = VqlsProblem.from_system(*criterion_04_system(0))
        theta = np.random.default_rng(3).uniform(0, 2 * math.pi, 8)
        settings = [("analytic", None), ("hadamard", None), ("hadamard", 100)]
        for estimator, shots in settings:
            cost(p, theta, estimator=estimator, shots=shots, rng=0)
        built = count_constructions(monkeypatch)
        for estimator, shots in settings:
            cost(p, theta + 0.5, estimator=estimator, shots=shots, rng=0)
        assert built == {"Circuit": 0, "Statevector": 0}
        oracle_ansatz_state(AnsatzSpec(2), theta)
        assert built == {"Circuit": 1, "Statevector": 2}


class TestVqlsProblem:
    def test_identity_decomposition(self):
        p = VqlsProblem.from_system(np.eye(2), np.array([3.0, 0.0]))
        assert len(p.decomposition) == 1
        assert p.decomposition.coefficient("I") == pytest.approx(1.0)
        assert p.b_norm == pytest.approx(3.0)
        assert np.allclose(p.b_state, [1.0, 0.0])

    def test_rejects_zero_b(self):
        with pytest.raises(ValueError):
            VqlsProblem.from_system(np.eye(2), np.zeros(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            VqlsProblem.from_system(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    np.array([1.0, 0.0]))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            VqlsProblem.from_system(np.eye(2), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_by_name(self, bad):
        a, b = np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4)
        b[2] = bad
        with pytest.raises(ValueError, match="right-hand side holds a non-finite"):
            VqlsProblem.from_system(a, b)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="matrix holds a non-finite value"):
            VqlsProblem.from_system(a, np.ones(4))


class TestCost:
    def test_zero_at_exact_solution_direction(self):
        # A = diag(1, 2), b ~ (1, 1): solution direction (2, 1)/sqrt(5)
        p = VqlsProblem.from_system(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        theta = np.array([2 * math.atan2(1.0, 2.0), 0.0, 0.0, 0.0])
        assert cost(p, theta) == pytest.approx(0.0, abs=1e-12)

    def test_identity_system_zero_theta(self):
        p = VqlsProblem.from_system(np.eye(4), np.array([1.0, 0, 0, 0]))
        assert cost(p, np.zeros(8)) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_on_random_thetas(self):
        rng = np.random.default_rng(4)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        for _ in range(1000):
            theta = rng.uniform(0, 2 * math.pi, size=8)
            c = cost(p, theta)
            assert -1e-9 <= c <= 1.0 + 1e-9

    def test_analytic_matches_exact_hadamard(self):
        rng = np.random.default_rng(5)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        for _ in range(3):
            theta = rng.uniform(0, 2 * math.pi, size=8)
            assert cost(p, theta) == pytest.approx(
                cost(p, theta, estimator="hadamard"), abs=1e-10)

    @given(hadamard_cases())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_exact_hadamard_matches_the_dense_oracle(self, case):
        p, theta = case
        got = cost(p, theta, estimator="hadamard")
        assert abs(got - dense_hadamard_cost(p, theta)) <= 1e-12
        assert abs(got - cost(p, theta)) <= 1e-10

    def test_sampled_hadamard_matches_the_dense_oracle_in_distribution(self):
        # the same ancilla law on the same probabilities, so the two sampled
        # costs share one distribution; the draws differ, because a test with
        # p0 exactly 1 draws no uniform here and does in the oracle
        rng = np.random.default_rng(12)
        a = 2.0 * np.eye(4) + 0.5 * pauli_matrix("XZ") + 0.3 * pauli_matrix("YY")
        p = VqlsProblem.from_system(a, rng.normal(size=4) + 1j * rng.normal(size=4))
        theta = rng.uniform(0, 2 * math.pi, size=8)
        got = np.array([cost(p, theta, estimator="hadamard", shots=100, rng=rng)
                        for _ in range(400)])
        want = np.array([dense_hadamard_cost(p, theta, shots=100, rng=rng)
                         for _ in range(400)])
        se = math.sqrt((got.var() + want.var()) / 400)
        assert abs(got.mean() - want.mean()) <= 4 * se
        assert 0.8 <= got.std() / want.std() <= 1.25

    def test_sampled_hadamard_near_exact(self):
        p = VqlsProblem.from_system(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        theta = np.array([0.7, 0.0, 0.3, 0.0])
        exact = cost(p, theta)
        sampled = cost(p, theta, estimator="hadamard", shots=200_000, rng=0)
        assert abs(sampled - exact) < 0.05

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(6)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        x /= np.linalg.norm(x)
        base = vqls._cost_from_state(p, x)
        for phi in (0.3, 1.2, math.pi):
            assert vqls._cost_from_state(p, np.exp(1j * phi) * x) == pytest.approx(
                base, abs=1e-12)

    def test_hadamard_estimator_runs_n_squared_plus_2n_tests(self, monkeypatch):
        # the overlap needs Re and Im of each term; the normalization only Re
        # of each pair, so n terms cost 2n + n^2 Hadamard tests
        rng = np.random.default_rng(8)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        theta = rng.uniform(0, 2 * math.pi, size=8)
        before = cost(p, theta, estimator="hadamard")
        seen = []
        ancilla_estimate = qsim.ancilla_estimate

        def counted(p0, shots=None, rng=None):
            seen.append(np.ravel(p0))
            return ancilla_estimate(p0, shots, rng)

        monkeypatch.setattr(qsim, "ancilla_estimate", counted)
        assert cost(p, theta, estimator="hadamard") == before
        p0 = np.concatenate(seen)
        n = len(p.decomposition)
        assert p0.size == 2 * n + n * n
        # Re then Im of each overlap <b|P_i|x>: n of the tests are imaginary
        x = ansatz_state(AnsatzSpec.default(2), theta)
        overlaps = np.array([np.vdot(p.b_state, pauli_matrix(s) @ x)
                             for _, s in p.decomposition.terms])
        assert np.allclose(2 * p0[0:2 * n:2] - 1, overlaps.real, atol=1e-12)
        assert np.allclose(2 * p0[1:2 * n:2] - 1, overlaps.imag, atol=1e-12)

    def test_rejects_unknown_estimator(self):
        p = VqlsProblem.from_system(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            cost(p, np.zeros(4), estimator="direct")

    def test_hadamard_estimator_runs_128x128(self):
        p = VqlsProblem.from_system(np.diag(np.arange(1.0, 129.0)), np.ones(128))
        theta = np.random.default_rng(14).uniform(
            0, 2 * math.pi, size=AnsatzSpec.default(7).num_parameters)
        got = cost(p, theta, estimator="hadamard")
        assert abs(got - cost(p, theta)) <= 1e-12
        assert abs(got - dense_hadamard_cost(p, theta)) <= 1e-12


class TestRealign:
    def test_real_state_unchanged(self):
        x = np.array([0.6, 0.8])
        assert np.allclose(realign_to_real(x), x, atol=1e-12)

    def test_recovers_phased_real_state(self):
        x = np.array([0.6, -0.8])
        for phi in (0.4, 2.0, -1.3):
            got = realign_to_real(np.exp(1j * phi) * x)
            assert got is not None
            assert np.allclose(got, x, atol=1e-10) or np.allclose(got, -x, atol=1e-10)

    def test_maximally_complex_state_gives_none(self):
        x = np.array([1.0, 1j]) / math.sqrt(2)
        assert realign_to_real(x) is None

    def test_result_is_real_unit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        x /= np.linalg.norm(x)
        got = realign_to_real(x)
        if got is not None:
            assert np.isrealobj(got)
            assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


class TestCanonicalPhase:
    def test_leading_amplitude_positive(self):
        x = np.array([-0.6, 0.8]) * np.exp(0.7j)
        got = canonical_phase(x)
        lead = np.argmax(np.abs(got))
        assert got[lead].imag == pytest.approx(0.0, abs=1e-12)
        assert got[lead].real > 0


class TestRescale:
    def test_doubling_matrix(self):
        p = VqlsProblem.from_system(2 * np.eye(2), np.array([3.0, 0.0]))
        w, scale, sign = rescale(p, np.array([1.0, 0.0]))
        assert scale == pytest.approx(1.5)
        assert sign == 1
        assert np.allclose(w, [1.5, 0.0], atol=1e-12)

    def test_sign_flip(self):
        a = 2 * np.eye(2)
        p = VqlsProblem.from_system(a, np.array([-3.0, 0.0]))
        w, scale, sign = rescale(p, np.array([1.0, 0.0]))
        assert sign == -1
        assert np.allclose(w, [-1.5, 0.0], atol=1e-12)
        assert np.linalg.norm(a @ w - np.array([-3.0, 0.0])) <= 1e-12

    def test_rejects_annihilated_state(self):
        p = VqlsProblem.from_system(np.diag([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            rescale(p, np.array([1.0, 0.0]))


def criterion_04_system(seed):
    """Acceptance criterion 04's well-conditioned 4x4 construction."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(4, 4))
    a = (m + m.T) / 2.0
    lam = np.linalg.eigvalsh(a)
    shift = max((lam[-1] - 10.0 * lam[0]) / 9.0, 0.0)
    return a + (shift + 1e-6) * np.eye(4), rng.uniform(-1.0, 1.0, size=4)


def trace_distance(x, y):
    """Trace distance between the pure states of two vectors."""
    x = np.asarray(x) / np.linalg.norm(x)
    y = np.asarray(y) / np.linalg.norm(y)
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(x, y)) ** 2))


class TestCertifiedStop:
    def test_certified_solves_are_within_epsilon(self):
        for dim in (2, 4):
            for seed in range(8):
                a, b = easy_spd(np.random.default_rng(100 + seed), dim)
                p = VqlsProblem.from_system(a, b)
                res = solve(p, seed=seed)
                assert res.stop_reason == "objective reached target"
                assert res.condition_number == pytest.approx(np.linalg.cond(a), rel=1e-9)
                distance = trace_distance(np.linalg.solve(a, b), res.w_state)
                assert distance <= res.error_bound + 1e-9
                assert distance <= vqls.DEFAULT_EPSILON
                # the certificate ends the search: the last cost met the target
                target = (vqls.DEFAULT_EPSILON / res.condition_number) ** 2
                assert res.cost_trace[-1] <= target * (1 + 1e-12)
                assert min(res.cost_trace[:-1]) > target * (1 - 1e-12)

    def test_certified_solve_skips_the_remaining_restarts(self, monkeypatch):
        starts = []
        minimize = vqls.optimize.minimize

        def counted(method, fun, x0, *rest):
            starts.append(x0)
            return minimize(method, fun, x0, *rest)

        monkeypatch.setattr(vqls.optimize, "minimize", counted)
        a, b = criterion_04_system(0)
        res = solve(VqlsProblem.from_system(a, b), seed=0, restarts=5, max_iters=2000)
        assert len(starts) == 2  # of the five restarts
        assert res.stop_reason == "objective reached target"
        assert res.converged

    def test_epsilon_zero_uses_the_whole_budget(self, monkeypatch):
        monkeypatch.setattr(vqls, "DEFAULT_EPSILON", 0.0)
        a, b = criterion_04_system(0)
        res = solve(VqlsProblem.from_system(a, b), seed=0, restarts=5, max_iters=2000)
        assert res.evaluations == 10_000
        assert res.stop_reason == "evaluation budget exhausted"

    def test_analytic_solve_ignores_shots(self):
        # the analytic cost is exact whatever shots says, so the solve
        # certifies and stops exactly as it does without shots
        a, b = easy_spd(np.random.default_rng(100), 4)
        p = VqlsProblem.from_system(a, b)
        plain = solve(p, seed=0)
        with_shots = solve(p, seed=0, shots=1000)
        assert with_shots.stop_reason == "objective reached target"
        assert with_shots.cost_trace == plain.cost_trace
        assert np.array_equal(with_shots.w, plain.w)

    def test_sampled_costs_never_certify(self, monkeypatch):
        p = VqlsProblem.from_system(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        exact = solve(p, seed=0, restarts=2, max_iters=80, estimator="hadamard")
        assert exact.stop_reason == "objective reached target"
        kwargs = dict(seed=0, restarts=2, max_iters=80, estimator="hadamard", shots=400)
        sampled = solve(p, **kwargs)
        target = (vqls.DEFAULT_EPSILON / sampled.condition_number) ** 2
        # noisy estimates pass the exact target, but the solve does not stop
        assert min(sampled.cost_trace) <= target
        assert sampled.evaluations == 160
        # nor does any target: a solve that would stop at its first exact
        # cost runs the same sampled path
        monkeypatch.setattr(vqls, "DEFAULT_EPSILON", math.inf)
        assert sampled.cost_trace == solve(p, **kwargs).cost_trace

    def test_error_bound_is_kappa_sqrt_cost(self):
        p = VqlsProblem.from_system(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        res = solve(p, seed=0, restarts=1, max_iters=12)
        assert res.condition_number == pytest.approx(4.0)
        assert res.error_bound == pytest.approx(4.0 * math.sqrt(res.final_cost))


class TestSolve:
    def test_identity_system(self):
        b = np.array([0.5, 0.5, 0.5, 0.5])
        p = VqlsProblem.from_system(np.eye(4), b)
        res = solve(p, seed=0)
        assert res.final_cost <= 1e-6
        assert res.converged
        assert np.allclose(np.real(res.w), b, atol=1e-3)

    def test_easy_spd_single_seed(self):
        rng = np.random.default_rng(11)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        res = solve(p, seed=1)
        w_cls = np.linalg.solve(a, b)
        fidelity = abs(np.vdot(w_cls / np.linalg.norm(w_cls), res.w_state)) ** 2
        assert fidelity >= 0.99
        assert res.residual <= 0.05

    def test_lbfgs_identity_system(self):
        b = np.array([1.0, 0.0])
        p = VqlsProblem.from_system(np.eye(2), b)
        res = solve(p, optimizer="lbfgs", seed=0, restarts=3, max_iters=3000)
        assert res.final_cost <= 1e-6

    def test_geometric_windows_predict_exactly(self):
        r = 1.1
        values = 100.0 * r ** np.arange(28.0)
        scaled = fit_scaler(np.diff(values)).apply(np.diff(values))
        ns = normal_equations(build_windows(scaled, 4))
        p = VqlsProblem.from_system(ns.A, ns.b)
        res = solve(p, seed=0)
        pred = predict_next(np.real(res.w), scaled[-4:])
        assert pred == pytest.approx(scaled[-1] * r, rel=1e-6)
        assert np.max(np.abs(np.imag(res.w))) <= 1e-12

    def test_deterministic(self):
        p = VqlsProblem.from_system(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        r1 = solve(p, seed=3, restarts=2, max_iters=300)
        r2 = solve(p, seed=3, restarts=2, max_iters=300)
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.w, r2.w)

    def test_trace_length_matches_evaluations(self):
        p = VqlsProblem.from_system(np.diag([1.0, 2.0]), np.array([1.0, 1.0]))
        res = solve(p, seed=0, restarts=2, max_iters=200)
        assert len(res.cost_trace) == res.evaluations
        assert res.evaluations <= 2 * 200

    @pytest.mark.parametrize("optimizer", ["cobyla", "lbfgs"])
    def test_every_cost_call_is_counted(self, monkeypatch, optimizer):
        # lbfgs's finite-difference gradients call the cost 2P times each,
        # outside the optimizer's count; gradient_evaluations counts them
        calls = []
        counted = cost

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(vqls, "cost", counting)
        p = VqlsProblem.from_system(np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones(2))
        res = solve(p, optimizer=optimizer, restarts=5, max_iters=5)
        assert res.evaluations + res.gradient_evaluations == len(calls)
        assert res.evaluations == len(res.cost_trace) == 25
        want = {"cobyla": 0, "lbfgs": 192}[optimizer]
        assert res.gradient_evaluations == want
        assert want % (2 * AnsatzSpec.default(1).num_parameters) == 0

    def test_unconverged_flag_on_tiny_budget(self):
        rng = np.random.default_rng(13)
        a, b = easy_spd(rng)
        p = VqlsProblem.from_system(a, b)
        res = solve(p, seed=0, restarts=1, max_iters=12)
        assert not res.converged

    def test_rejects_unknown_optimizer(self):
        p = VqlsProblem.from_system(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            solve(p, optimizer="adam")

    def test_rejects_no_restarts_naming_the_value(self):
        p = VqlsProblem.from_system(np.eye(2), np.array([1.0, 0.0]))
        for restarts in (0, -3):
            with pytest.raises(ValueError,
                               match="restarts must be at least 1, got %d" % restarts):
                solve(p, restarts=restarts)

    def test_rejects_no_budget_before_any_evaluation(self, monkeypatch):
        p = VqlsProblem.from_system(np.eye(2), np.array([1.0, 0.0]))
        monkeypatch.setattr(vqls, "cost", lambda *args, **kwargs: pytest.fail(
            "the cost was evaluated"))
        for max_iters in (0, -5):
            with pytest.raises(ValueError,
                               match="max_iters must be at least 1, got %d" % max_iters):
                solve(p, max_iters=max_iters)
