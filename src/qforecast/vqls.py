"""Variational quantum linear solver over Pauli-decomposed normal equations.

Given A w = b with Hermitian A, the solver prepares a trial state |x(theta)>
with a layered hardware-style ansatz and minimizes

    C(theta) = 1 - |<b|psi>|^2 / <psi|psi>,    |psi> = A |x(theta)>,

which is zero exactly when A|x> is parallel to |b>.

Cost terms can be evaluated analytically or through Hadamard-test
estimators (exact or shot-sampled) over the n retained Pauli terms P_i.
The Hadamard estimator runs the ansatz once for x = |x(theta)> and applies
each P_i to x. A test of U on |0> reads ancilla 0 with probability
(1 + Re<0|U|0>)/2, so the 2n overlap tests (Re and Im of <b|P_i|x>) and
the n^2 normalization tests (Re <P_i x|P_j x>) each get their outcome from
that probability through qsim.ancilla_estimate, the law qsim.hadamard_test
uses.

Solutions of real systems are snapped to a real representative after
optimization when that does not hurt the cost: the global phase of
|x(theta)> is arbitrary, and downstream forecasting needs real weights.

The cost certifies the answer. With kappa the condition number of A, the
trace distance between |x(theta)> and the normalized true solution is at
most kappa * sqrt(C) (Bravo-Prieto et al., arXiv:1909.05820), so an exact
solve stops as soon as C <= DEFAULT_EPSILON^2 / kappa^2.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linsys, optimize, pauli, qsim

DEFAULT_COST_TOL = 1e-3
DEFAULT_EPSILON = 1e-3  # trace distance an exact solve certifies before stopping


def default_layers(num_qubits: int) -> int:
    return 1 if num_qubits <= 2 else 2


@dataclass(frozen=True)
class AnsatzSpec:
    """Layered ansatz: a rotation layer, then `layers` entangle+rotate blocks.

    Each rotation layer applies RY then RZ to every qubit; each entangling
    block is the CNOT chain (0,1), (1,2), ..., (k-2, k-1). Parameters are
    ordered layer-major, qubit-minor, RY before RZ.
    """

    num_qubits: int
    layers: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.layers < 1:
            raise ValueError("need at least one layer")

    @classmethod
    def default(cls, num_qubits: int) -> "AnsatzSpec":
        return cls(num_qubits, default_layers(num_qubits))

    @property
    def num_parameters(self) -> int:
        return 2 * self.num_qubits * (self.layers + 1)


def _checked_theta(spec: AnsatzSpec, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.num_parameters,):
        raise ValueError(f"theta has shape {theta.shape}, "
                         f"expected ({spec.num_parameters},)")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite values")
    return theta


def ansatz_circuit(spec: AnsatzSpec, theta) -> qsim.Circuit:
    """The ansatz at theta, gate by gate: its one definition."""
    theta = _checked_theta(spec, theta)
    k = spec.num_qubits
    circuit = qsim.Circuit(k)
    pos = 0
    for layer in range(spec.layers + 1):
        if layer > 0:
            for q in range(k - 1):
                circuit.cnot(q, q + 1)
        for q in range(k):
            circuit.ry(q, theta[pos])
            circuit.rz(q, theta[pos + 1])
            pos += 2
    return circuit


@functools.lru_cache(maxsize=16)
def ansatz_plan(spec: AnsatzSpec) -> qsim.PairedPlan:
    """`ansatz_circuit`'s gates as `qsim.plan_of` steps paired for
    `qsim.plan_state`, read once per spec on first use at theta_p = p: the
    structure does not depend on theta."""
    circuit = ansatz_circuit(spec, np.arange(spec.num_parameters))
    return qsim.pair_plan(spec.num_qubits, qsim.plan_of(circuit))


def ansatz_state(spec: AnsatzSpec, theta) -> np.ndarray:
    """|x(theta)>: `ansatz_circuit(spec, theta)` run on |0...0> through its
    plan by `qsim.plan_state`; equal to `qsim.run_circuit`'s state up to
    rounding (the two differ by about 1e-16)."""
    theta = _checked_theta(spec, theta)
    return qsim.plan_state(spec.num_qubits, ansatz_plan(spec), theta)


@dataclass(frozen=True)
class VqlsProblem:
    """A Pauli-decomposed system A w = b with its normalized right-hand side."""

    decomposition: pauli.PauliDecomposition
    b_state: np.ndarray
    b_norm: float
    a_used: np.ndarray      # reconstruction of the retained terms

    @property
    def num_qubits(self) -> int:
        return self.decomposition.num_qubits

    @classmethod
    def from_system(cls, a, b) -> "VqlsProblem":
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix shape {a.shape} is not square")
        if b.size != a.shape[0]:
            raise ValueError(f"b has length {b.size}, matrix is {a.shape[0]}")
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            raise ValueError("right-hand side is zero")
        decomposition = pauli.decompose(a)
        if not decomposition.terms:
            raise ValueError("matrix decomposed to nothing above the prune tolerance")
        b_state = b / b_norm
        b_state.setflags(write=False)
        a_used = pauli.reconstruct(decomposition)
        a_used.setflags(write=False)
        return cls(decomposition=decomposition, b_state=b_state, b_norm=b_norm,
                   a_used=a_used)


def _cost_from_state(problem: VqlsProblem, x: np.ndarray) -> float:
    psi = problem.a_used @ x
    overlap = abs(np.vdot(problem.b_state, psi)) ** 2
    denom = float(np.real(np.vdot(psi, psi)))
    if denom <= 1e-300:
        return 1.0
    return float(1.0 - overlap / denom)


def cost(problem: VqlsProblem, theta, estimator: str = "analytic",
         shots: int | None = None, rng=None) -> float:
    """Cost of the default ansatz's state at theta; 0 means A|x> is
    parallel to |b>."""
    if estimator not in ("analytic", "hadamard"):
        raise ValueError(f"estimator must be 'analytic' or 'hadamard', "
                         f"got {estimator!r}")
    x = ansatz_state(AnsatzSpec.default(problem.num_qubits), theta)
    if estimator == "analytic":
        return _cost_from_state(problem, x)
    alphas = np.array([a for a, _ in problem.decomposition.terms])
    px = np.array([qsim.apply_pauli(x, s.digits)
                   for _, s in problem.decomposition.terms])
    overlaps = px @ problem.b_state.conj()   # <b|P_i|x>
    gram = (px.conj() @ px.T).real           # Re <x|P_i P_j|x>
    # the tests in the order a circuit would run them: Re then Im of each
    # overlap, then the normalization pairs row by row
    values = np.concatenate([np.column_stack([overlaps.real, overlaps.imag]).ravel(),
                             gram.ravel()])
    outcomes = qsim.ancilla_estimate((1.0 + values) / 2.0, shots, rng)
    n = len(alphas)
    overlap = alphas @ (outcomes[0:2 * n:2] + 1j * outcomes[1:2 * n:2])
    denom = alphas @ outcomes[2 * n:].reshape(n, n) @ alphas
    if denom <= 1e-12:
        return 1.0
    return float(1.0 - abs(overlap) ** 2 / denom)


def canonical_phase(state: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest amplitude is real positive."""
    state = np.asarray(state, dtype=complex)
    lead = int(np.argmax(np.abs(state)))
    mag = abs(state[lead])
    if mag == 0.0:
        return state.copy()
    return state * (state[lead].conjugate() / mag)


def realign_to_real(state: np.ndarray) -> np.ndarray | None:
    """Best real unit vector matching `state` up to global phase, or None.

    The imaginary norm of e^{i phi} x is minimized at phi = -arg(sum x_j^2)/2;
    if the real part at that phase is degenerate (norm ~ 0) there is no
    useful real representative.
    """
    state = np.asarray(state, dtype=complex)
    square_sum = complex(np.sum(state * state))
    if abs(square_sum) < 1e-12:
        return None
    phase = cmath.exp(-0.5j * cmath.phase(square_sum))
    real_part = np.real(phase * state)
    norm = float(np.linalg.norm(real_part))
    if norm < 1e-6:
        return None
    return real_part / norm


def rescale(problem: VqlsProblem, w_state) -> tuple[np.ndarray, float, int]:
    """Classical post-scaling: w = sign * (||b|| / ||A x||) * x.

    The sign is the choice in {+1, -1} minimizing ||A w - b||; ties keep +1.
    """
    x = np.asarray(w_state, dtype=complex)
    psi = problem.a_used @ x
    psi_norm = float(np.linalg.norm(psi))
    if psi_norm <= 1e-300:
        raise ValueError("A maps the trial state to zero; cannot rescale")
    scale = problem.b_norm / psi_norm
    b = problem.b_state * problem.b_norm
    res_plus = float(np.linalg.norm(scale * psi - b))
    res_minus = float(np.linalg.norm(-scale * psi - b))
    sign = -1 if res_minus < res_plus else 1
    return sign * scale * x, scale, sign


@dataclass
class VqlsResult:
    theta: np.ndarray
    w_state: np.ndarray
    w: np.ndarray
    cost_trace: list[float]
    final_cost: float
    residual: float
    converged: bool
    evaluations: int
    gradient_evaluations: int  # cost calls of lbfgs's finite differences
    condition_number: float  # of the retained terms' matrix
    stop_reason: str         # the best restart's optimizer message

    @property
    def error_bound(self) -> float:
        """Bound kappa * sqrt(final_cost) on the trace distance to the
        normalized true solution."""
        return self.condition_number * math.sqrt(max(self.final_cost, 0.0))


def solve(problem: VqlsProblem, optimizer: str = "cobyla", seed: int = 0,
          restarts: int = 5, max_iters: int = 2000,
          estimator: str = "analytic", shots: int | None = None) -> VqlsResult:
    """Minimize the cost over theta with seeded random restarts.

    Returns the best restart's solution, snapped to a real representative
    when that is at least as good, with the classical rescale applied, for
    the default ansatz. The convergence flag reports final cost <=
    DEFAULT_COST_TOL.

    When the cost is exact (the analytic estimator, or no shots) and A is
    not singular, a restart stops at the first cost <= DEFAULT_EPSILON^2 /
    kappa^2, which certifies a trace distance of at most DEFAULT_EPSILON,
    and the remaining restarts are skipped. The analytic estimator ignores
    shots, so its solves do not depend on them; shots below 1 are refused
    whatever the estimator.

    `evaluations` counts the optimizer's cost evaluations, the ones in
    `cost_trace`. lbfgs's finite-difference gradients call the cost 2P
    times each for P parameters, outside that count and trace; those calls
    are `gradient_evaluations`, 0 for cobyla.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if shots is not None and shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    ansatz = AnsatzSpec.default(problem.num_qubits)
    rng = np.random.default_rng(seed)
    sampled = estimator == "hadamard" and shots is not None
    shot_rng = np.random.default_rng(rng.integers(2 ** 63)) if sampled else None

    def objective(theta):
        return cost(problem, theta, estimator=estimator, shots=shots,
                    rng=shot_rng)

    gradient_evaluations = 0

    def counted(theta):
        nonlocal gradient_evaluations
        gradient_evaluations += 1
        return objective(theta)

    grad = lambda t: optimize.finite_diff_gradient(counted, t)
    kappa = linsys.condition_number(problem.a_used)
    target = None
    if not sampled and math.isfinite(kappa):
        target = DEFAULT_EPSILON ** 2 / kappa ** 2
    options = optimize.OptimOptions(max_iters=max_iters, max_evals=max_iters,
                                    target=target)
    best = None
    trace: list[float] = []
    evaluations = 0
    for _ in range(restarts):
        theta0 = rng.uniform(0.0, 2.0 * math.pi, size=ansatz.num_parameters)
        res = optimize.minimize(optimizer, objective, theta0, grad, options)
        trace.extend(res.trace)
        evaluations += res.evaluations
        if best is None or res.fun < best.fun:
            best = res
        if target is not None and best.fun <= target:
            break
    theta_best = np.asarray(best.x, dtype=float)
    raw_state = ansatz_state(ansatz, theta_best)
    chosen = raw_state
    real_candidate = realign_to_real(raw_state)
    if real_candidate is not None:
        raw_cost = _cost_from_state(problem, raw_state)
        real_cost = _cost_from_state(problem, real_candidate)
        if real_cost <= raw_cost + 1e-12:
            chosen = real_candidate
    w_state = canonical_phase(chosen)
    w = rescale(problem, w_state)[0]
    final_cost = _cost_from_state(problem, w_state)
    b = problem.b_state * problem.b_norm
    residual = float(np.linalg.norm(problem.a_used @ w - b)) / problem.b_norm
    return VqlsResult(theta=theta_best, w_state=w_state, w=w, cost_trace=trace,
                      final_cost=final_cost, residual=residual,
                      converged=bool(final_cost <= DEFAULT_COST_TOL),
                      evaluations=evaluations,
                      gradient_evaluations=gradient_evaluations,
                      condition_number=kappa,
                      stop_reason=best.message)
