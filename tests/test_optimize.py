"""Optimizer behavior tests on standard analytic functions."""

import math

import numpy as np
import pytest
import scipy.optimize

from qforecast import optimize
from qforecast.optimize import (METHODS, OptimOptions, finite_diff_gradient,
                                minimize, minimize_derivative_free,
                                minimize_quasi_newton)


def quad1(x):
    return float((x[0] - 3.0) ** 2)


def ellipse(x):
    return float(x[0] ** 2 + 10.0 * x[1] ** 2)


def ellipse_grad(x):
    return np.array([2.0 * x[0], 20.0 * x[1]])


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def rosenbrock_grad(x):
    return np.array([
        -2.0 * (1 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])


def random_quadratic(rng, n):
    """f(x) = (x-c)^T M (x-c) with eigenvalues in [1, 10]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = rng.uniform(1.0, 10.0, size=n)
    m = q @ np.diag(eig) @ q.T
    c = rng.normal(size=n)
    fun = lambda x: float((x - c) @ m @ (x - c))
    grad = lambda x: 2.0 * m @ (x - c)
    return fun, grad, c


class TestDerivativeFree:
    def test_one_dim_quadratic(self):
        res = minimize_derivative_free(quad1, [0.0])
        assert res.converged
        assert abs(res.x[0] - 3.0) <= 1e-4

    def test_ellipse_from_far_start(self):
        res = minimize_derivative_free(ellipse, [5.0, 5.0])
        assert res.converged
        assert np.linalg.norm(res.x) <= 1e-3

    def test_ten_dim_quadratic_gradient_norm(self):
        rng = np.random.default_rng(0)
        fun, grad, _ = random_quadratic(rng, 10)
        res = minimize_derivative_free(fun, rng.normal(size=10),
                                       OptimOptions(max_iters=2000, max_evals=2000))
        assert np.linalg.norm(grad(res.x)) <= 1e-4
        assert res.evaluations <= 2000

    def test_best_seen_monotonicity(self):
        res = minimize_derivative_free(ellipse, [4.0, -2.0])
        assert res.fun <= min(res.trace)
        assert res.fun == pytest.approx(ellipse(res.x))

    def test_deterministic(self):
        r1 = minimize_derivative_free(ellipse, [4.0, -2.0])
        r2 = minimize_derivative_free(ellipse, [4.0, -2.0])
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x, r2.x)

    def test_eval_budget_respected(self):
        res = minimize_derivative_free(ellipse, [5.0, 5.0],
                                       OptimOptions(max_evals=20))
        assert res.evaluations == 20
        assert not res.converged

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError):
            minimize_derivative_free(lambda x: math.nan, [1.0])

    def test_flat_function_terminates(self):
        res = minimize_derivative_free(lambda x: 1.0, [0.0, 0.0],
                                       OptimOptions(max_iters=500))
        assert res.fun == 1.0


def reference_derivative_free(fun, x0, options, far_repairs):
    """Oracle: the derivative-free loop that takes the simplex's smallest
    singular value before every repair-or-shrink decision. Appends one
    entry to `far_repairs` per decision that the distance test alone
    settles."""
    opts = options
    x0 = np.array(x0, dtype=float)
    n = x0.size
    rec = optimize._Recorder(fun, opts)
    rho = optimize.INITIAL_STEP
    try:
        optimize._check_start(x0, rec)
        sim = np.tile(x0, (n + 1, 1))
        fs = np.empty(n + 1)
        fs[0] = rec.trace[0]
        for i in range(n):
            sim[i + 1, i] += rho
            fs[i + 1] = rec(sim[i + 1])
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        for _ in range(opts.max_iters):
            if rho <= optimize.TRUST_RADIUS_END:
                return rec.result(True, "trust radius below tolerance")
            diffs = sim[1:] - sim[0]
            dvals = fs[1:] - fs[0]
            grad, *_ = np.linalg.lstsq(diffs, dvals, rcond=None)
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 1e-15:
                pole_value = fs[0]
                trial = sim[0] - (rho / gnorm) * grad
                f_trial = rec(trial)
                worst = int(np.argmax(fs[1:])) + 1
                sim[worst], fs[worst] = trial, f_trial
                order = np.argsort(fs, kind="stable")
                sim, fs = sim[order], fs[order]
                if pole_value - f_trial >= 0.1 * rho * gnorm:
                    continue
            dists = np.linalg.norm(sim[1:] - sim[0], axis=1)
            far = int(np.argmax(dists)) + 1
            sing = np.linalg.svd(sim[1:] - sim[0], compute_uv=False)
            if dists.max() > 2.0 * rho:
                far_repairs.append(far)
            if dists.max() > 2.0 * rho or sing[-1] < 0.1 * rho:
                _, _, vt = np.linalg.svd(sim[1:] - sim[0])
                probe = vt[-1]
                if gnorm > 1e-15 and float(probe @ grad) > 0:
                    probe = -probe
                trial = sim[0] + rho * probe
                fs[far] = rec(trial)
                sim[far] = trial
                order = np.argsort(fs, kind="stable")
                sim, fs = sim[order], fs[order]
            else:
                rho *= 0.5
        return rec.result(False, "iteration limit reached")
    except optimize._Stop as stop:
        return rec.result(*stop.args)


def rosenbrock_nd(x):
    if x.size == 1:
        return float((1 - x[0]) ** 2)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestDerivativeFreeRepair:
    """The flatness SVD is skipped when a far vertex already decides the
    repair; the search itself is the reference loop's, bit for bit."""

    @pytest.mark.parametrize("kind", ["quadratic", "rosenbrock"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 24, 48])
    def test_equals_the_reference_loop(self, monkeypatch, kind, n):
        rng = np.random.default_rng(100 + n)
        fun = (random_quadratic(rng, n)[0] if kind == "quadratic"
               else rosenbrock_nd)
        x0 = rng.uniform(-1.0, 1.0, size=n)
        options = OptimOptions(max_iters=300, max_evals=20 * n + 100)
        flatness_svds = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            if kwargs.get("compute_uv") is False:
                flatness_svds.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        far_repairs = []
        want = reference_derivative_free(fun, x0, options, far_repairs)
        reference_svds = len(flatness_svds)
        flatness_svds.clear()
        got = minimize_derivative_free(fun, x0, options)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.trace == want.trace
        assert (got.evaluations, got.message, got.converged) == (
            want.evaluations, want.message, want.converged)
        # 1 to 279 of the decisions per case are settled by distance alone
        assert len(far_repairs) > 0 or n == 1
        assert len(flatness_svds) == reference_svds - len(far_repairs)


class TestQuasiNewton:
    def test_ellipse(self):
        res = minimize_quasi_newton(ellipse, [5.0, 5.0], ellipse_grad)
        assert res.converged
        assert np.linalg.norm(res.x) <= 1e-3

    def test_rosenbrock_standard_start(self):
        res = minimize_quasi_newton(rosenbrock, [-1.2, 1.0], rosenbrock_grad,
                                    OptimOptions(max_iters=500))
        assert res.fun <= 1e-6

    def test_matches_scipy_on_rosenbrock(self):
        ours = minimize_quasi_newton(rosenbrock, [-1.2, 1.0], rosenbrock_grad,
                                     OptimOptions(max_iters=500))
        ref = scipy.optimize.minimize(rosenbrock, [-1.2, 1.0],
                                      jac=rosenbrock_grad, method="L-BFGS-B")
        assert ours.fun <= ref.fun + 1e-6
        assert np.allclose(ours.x, ref.x, atol=1e-3)

    def test_ten_dim_quadratic_gradient_norm(self):
        rng = np.random.default_rng(1)
        fun, grad, _ = random_quadratic(rng, 10)
        res = minimize_quasi_newton(fun, rng.normal(size=10), grad,
                                    OptimOptions(max_iters=2000, max_evals=2000))
        assert np.linalg.norm(grad(res.x)) <= 1e-4
        assert res.evaluations <= 2000

    def test_best_seen_monotonicity(self):
        res = minimize_quasi_newton(rosenbrock, [-1.2, 1.0], rosenbrock_grad,
                                    OptimOptions(max_iters=200))
        assert res.fun <= min(res.trace)

    def test_deterministic(self):
        r1 = minimize_quasi_newton(ellipse, [3.0, 4.0], ellipse_grad)
        r2 = minimize_quasi_newton(ellipse, [3.0, 4.0], ellipse_grad)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x, r2.x)

    def test_eval_budget(self):
        res = minimize_quasi_newton(rosenbrock, [-1.2, 1.0], rosenbrock_grad,
                                    OptimOptions(max_evals=5))
        assert res.evaluations <= 5
        assert not res.converged

    def test_iteration_cap_makes_one_gradient_per_iteration(self):
        rng = np.random.default_rng(3)
        fun, grad, _ = random_quadratic(rng, 5)
        points = []
        counted = lambda x: (points.append(x.copy()), grad(x))[1]
        res = minimize_quasi_newton(fun, rng.normal(size=5), counted,
                                    OptimOptions(max_iters=3))
        assert res.message == "iteration limit reached"
        assert len(points) == 3

    def test_objective_delta_stop_skips_the_last_gradient(self):
        # on a large offset the relative objective delta of the first
        # accepted step is below tolerance, so the run stops there, and the
        # step's end point needs no gradient
        points = []
        counted = lambda x: (points.append(x.copy()), ellipse_grad(x))[1]
        res = minimize_quasi_newton(lambda x: 1e12 + ellipse(x), [3.0, 4.0],
                                    counted)
        assert res.message == "objective delta below tolerance"
        assert len(points) == 1
        np.testing.assert_array_equal(points[0], [3.0, 4.0])

    def test_works_with_finite_diff_gradient(self):
        grad = lambda x: finite_diff_gradient(ellipse, x)
        res = minimize_quasi_newton(ellipse, [2.0, -1.0], grad)
        assert np.linalg.norm(res.x) <= 1e-3


class TestMinimize:
    def test_method_names_pick_the_minimizer(self):
        options = OptimOptions(max_iters=30)
        picked = {"cobyla": minimize_derivative_free(ellipse, [3.0, 4.0], options),
                  "lbfgs": minimize_quasi_newton(ellipse, [3.0, 4.0],
                                                 ellipse_grad, options)}
        assert tuple(picked) == METHODS
        for method, want in picked.items():
            got = minimize(method, ellipse, [3.0, 4.0], ellipse_grad, options)
            assert got.trace == want.trace
            assert np.array_equal(got.x, want.x)
        with pytest.raises(ValueError, match="optimizer must be one of "
                                             "cobyla, lbfgs, got 'adam'"):
            minimize("adam", ellipse, [3.0, 4.0], ellipse_grad, options)

    def test_bad_budget_rejected_naming_the_value(self):
        # with no evaluation allowed there is no best point to return
        with pytest.raises(ValueError, match="max_iters must be at least 0, got -1"):
            OptimOptions(max_iters=-1)
        for evals in (0, -5):
            with pytest.raises(ValueError,
                               match="max_evals must be at least 1, got %d" % evals):
                OptimOptions(max_evals=evals)
        assert minimize_derivative_free(ellipse, [3.0, 4.0],
                                        OptimOptions(max_evals=1)).evaluations == 1
        assert minimize_quasi_newton(ellipse, [3.0, 4.0], ellipse_grad,
                                     OptimOptions(max_iters=0)).evaluations == 1


class TestTarget:
    def test_stops_at_the_first_evaluation_at_or_below_target(self):
        for fun, grad, x0, target in ((ellipse, ellipse_grad, [3.0, 4.0], 1.0),
                                      (rosenbrock, rosenbrock_grad, [-1.2, 1.0], 5.0)):
            for method in METHODS:
                free = minimize(method, fun, x0, grad, OptimOptions(max_evals=500))
                first = next(i for i, v in enumerate(free.trace) if v <= target)
                got = minimize(method, fun, x0, grad,
                               OptimOptions(max_evals=500, target=target))
                assert got.trace == free.trace[:first + 1]
                assert got.converged
                assert got.message == "objective reached target"
                assert got.fun == free.trace[first] <= target
                assert got.fun == fun(got.x)

    def test_target_met_at_the_start_point(self):
        for method in METHODS:
            got = minimize(method, ellipse, [0.1, 0.0], ellipse_grad,
                           OptimOptions(target=0.5))
            assert got.evaluations == 1
            assert got.message == "objective reached target"

    def test_unreached_target_changes_nothing(self):
        rng = np.random.default_rng(5)
        problems = []
        for n in (1, 2, 3, 5, 8):
            fun, grad, _ = random_quadratic(rng, n)
            offset = float(rng.uniform(0.0, 100.0))
            problems.append((lambda x, f=fun, o=offset: f(x) + o, grad,
                             rng.normal(size=n)))
        for x0 in ([-1.2, 1.0], [2.0, 2.0], [0.0, -1.5]):
            problems.append((rosenbrock, rosenbrock_grad, x0))
        for fun, grad, x0 in problems:
            for method in METHODS:
                for options in (OptimOptions(), OptimOptions(max_iters=40, max_evals=150)):
                    free = minimize(method, fun, x0, grad, options)
                    # just below the best value the run ever sees
                    target = float(np.nextafter(free.fun, -np.inf))
                    got = minimize(method, fun, x0, grad,
                                   OptimOptions(options.max_iters, options.max_evals,
                                                target=target))
                    assert got.x.tobytes() == free.x.tobytes()
                    assert got.fun == free.fun
                    assert got.trace == free.trace
                    assert (got.evaluations, got.converged, got.message) == \
                        (free.evaluations, free.converged, free.message)


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        x = np.array([1.0, -2.0])
        got = finite_diff_gradient(ellipse, x)
        assert np.allclose(got, ellipse_grad(x), atol=1e-6)

    def test_rosenbrock_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            got = finite_diff_gradient(rosenbrock, x)
            assert np.allclose(got, rosenbrock_grad(x), rtol=1e-5, atol=1e-4)
