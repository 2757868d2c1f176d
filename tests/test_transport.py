import numpy as np
import pytest

from shapetransport import bench, preshape, transport
from shapetransport.transport import TransportProblem

from conftest import random_horizontal, random_preshape


def make_problem(seed, m=3, k=4, n=100):
    rng = np.random.default_rng(seed)
    p = bench.sample_problem(m, k, rng)
    return TransportProblem(p.x, p.w, p.v, n)


def rk4_reference(problem, n_ref=1100):
    return transport.transport_integrated(
        TransportProblem(problem.x, problem.w, problem.v, n_ref),
        scheme="rk4").transported


class TestGeodesicState:
    def test_start(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        gamma, gamma_dot = transport.geodesic_state(x, w, 0.0)
        assert np.array_equal(gamma, x)
        assert np.array_equal(gamma_dot, w)

    def test_constant_speed(self, rng):
        x = random_preshape(rng, 3, 4)
        w = 0.8 * random_horizontal(rng, x)
        gamma, gamma_dot = transport.geodesic_state(x, w, 1.0)
        assert np.linalg.norm(gamma - preshape.exp(x, w)) < 1e-12
        assert abs(np.linalg.norm(gamma_dot) - np.linalg.norm(w)) < 1e-12

    def test_velocity_matches_finite_difference(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        h = 1e-5
        _, gamma_dot = transport.geodesic_state(x, w, 0.5)
        fd = (preshape.exp(x, (0.5 + h) * w) - preshape.exp(x, (0.5 - h) * w)) / (2 * h)
        assert np.linalg.norm(gamma_dot - fd) < 1e-8

    def test_velocity_horizontal(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        for s in (0.25, 0.5, 0.9):
            gamma, gamma_dot = transport.geodesic_state(x, w, s)
            assert preshape.is_horizontal(gamma, gamma_dot)


class TestOdeRhs:
    def test_velocity_transports_radially(self, rng):
        # v = gamma': the skew right-hand side vanishes, so only the
        # radial term -|gamma'|^2 gamma remains
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        rhs = transport.transport_ode_rhs(x, w, w)
        assert np.linalg.norm(rhs + np.sum(w * w) * x) < 1e-12

    def test_symmetric_pairing_kills_rotation_term(self, rng):
        x = random_preshape(rng, 3, 4)
        w = random_horizontal(rng, x)
        v = 0.3 * w  # v w^T symmetric
        rhs = transport.transport_ode_rhs(x, w, v)
        assert np.linalg.norm(rhs + np.sum(w * v) * x) < 1e-12

    def test_tangency_preservation_identity(self, rng):
        for _ in range(10):
            x = random_preshape(rng, 3, 4)
            w = random_horizontal(rng, x)
            v = random_horizontal(rng, x)
            gamma, gamma_dot = transport.geodesic_state(x, w, 0.3)
            rhs = transport.transport_ode_rhs(gamma, gamma_dot, v)
            assert abs(np.sum(rhs * gamma) + np.sum(v * gamma_dot)) < 1e-10


class TestIntegratedSchemes:
    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    def test_velocity_self_transport(self, scheme):
        # exact answer is gamma'(1): geodesics transport their own velocity
        problem = make_problem(3)
        problem = TransportProblem(problem.x, problem.w, problem.w, 100)
        result = transport.transport_integrated(problem, scheme)
        _, expected = transport.geodesic_state(problem.x, problem.w, 1.0)
        err = np.linalg.norm(result.transported - expected)
        if scheme == "euler":
            # forward Euler on unit circular motion: leading error delta/2
            assert err == pytest.approx(0.5 / problem.n, rel=0.1)
        else:
            assert err < 1e-4

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    def test_zero_vector(self, scheme):
        problem = make_problem(4)
        problem = TransportProblem(problem.x, problem.w,
                                   np.zeros_like(problem.v), 10)
        result = transport.transport_integrated(problem, scheme)
        assert np.linalg.norm(result.transported) < 1e-14

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    def test_one_step_is_the_textbook_step(self, scheme):
        # pins each tableau exactly: RK2 is the explicit midpoint rule, not
        # Heun, even though both are second order
        problem = make_problem(15, n=1)
        x, w, v = problem.x, problem.w, problem.v

        def f(s, vv):
            gamma, gamma_dot = transport.geodesic_state(x, w, s)
            return transport.transport_ode_rhs(gamma, gamma_dot, vv)

        k1 = f(0.0, v)
        if scheme == "euler":
            gamma, _ = transport.geodesic_state(x, w, 1.0)
            v1 = preshape.horizontal_projection(
                gamma, preshape.to_tangent(gamma, v + k1))
        elif scheme == "rk2":
            v1 = v + f(0.5, v + 0.5 * k1)
        else:
            k2 = f(0.5, v + 0.5 * k1)
            k3 = f(0.5, v + 0.5 * k2)
            k4 = f(1.0, v + k3)
            v1 = v + 1 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        endpoint = preshape.exp(x, w)
        expected = preshape.horizontal_projection(
            endpoint, preshape.to_tangent(endpoint, v1))
        result = transport.transport_integrated(problem, scheme)
        assert np.array_equal(result.endpoint, endpoint)
        assert np.array_equal(result.transported, expected)

    def test_euler_error_halves_with_doubled_steps(self):
        ratios = []
        for seed in range(10):
            problem = make_problem(seed)
            ref = rk4_reference(problem)
            errs = []
            for n in (50, 100):
                got = transport.transport_integrated(
                    TransportProblem(problem.x, problem.w, problem.v, n),
                    "euler").transported
                errs.append(np.linalg.norm(got - ref))
            ratios.append(errs[0] / errs[1])
        assert 1.7 <= np.mean(ratios) <= 2.3

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    def test_output_invariants(self, scheme):
        problem = make_problem(5)
        result = transport.transport_integrated(problem, scheme)
        assert abs(np.sum(result.transported * result.endpoint)) < 1e-10
        assert preshape.is_horizontal(result.endpoint, result.transported,
                                      tol=1e-8)


class TestPoleLadder:
    def test_zero_vector(self):
        problem = make_problem(6, n=7)
        problem = TransportProblem(problem.x, problem.w,
                                   np.zeros_like(problem.v), 7)
        result = transport.pole_ladder(problem)
        assert np.linalg.norm(result.transported) < 1e-12

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            transport.pole_ladder(make_problem(6), alpha=0.5)

    @pytest.mark.parametrize("k", [3, 5])
    def test_planar_shapes_exact_in_one_step(self, k):
        # for m=2 the shape space is symmetric, so one rung suffices
        problem = make_problem(7, m=2, k=k, n=1)
        ref = rk4_reference(problem)
        result = transport.pole_ladder(problem)
        assert np.linalg.norm(result.transported - ref) < 1e-9

    def test_quadratic_convergence(self):
        problem = make_problem(8)
        ref = rk4_reference(problem)
        ns = np.array([10, 20, 50, 100, 200])
        errs = [np.linalg.norm(transport.pole_ladder(
            TransportProblem(problem.x, problem.w, problem.v, int(n))
        ).transported - ref) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert -2.3 <= slope <= -1.7

    def test_output_horizontal(self):
        problem = make_problem(9, n=25)
        result = transport.pole_ladder(problem)
        assert preshape.is_horizontal(result.endpoint, result.transported,
                                      tol=1e-8)


class TestTransportProperties:
    @pytest.mark.parametrize("method,tol", [
        # Euler's norm drift is first order with an O(1) constant, so it
        # only reaches ~1e-2 at n=100; the other methods are much tighter.
        ("euler", 2e-2), ("rk2", 2e-3), ("rk4", 2e-3), ("pole", 2e-3)])
    def test_isometry_and_angle(self, method, tol):
        problem = make_problem(10, n=100)
        result = transport.transport(problem, method)
        _, gamma_dot = transport.geodesic_state(problem.x, problem.w, 1.0)
        assert abs(np.linalg.norm(result.transported) - 1.0) < tol
        assert abs(np.sum(result.transported * gamma_dot)
                   - np.sum(problem.v * problem.w)) < tol

    def test_isometry_tightens_with_n(self):
        problem = make_problem(10)
        drifts = []
        for n in (50, 200):
            result = transport.transport(
                TransportProblem(problem.x, problem.w, problem.v, n), "euler")
            drifts.append(abs(np.linalg.norm(result.transported) - 1.0))
        assert drifts[1] < drifts[0] / 2.5

    def test_methods_agree_at_high_resolution(self):
        problem = make_problem(11, n=1000)
        results = {m: transport.transport(problem, m).transported
                   for m in transport.METHODS}
        # the higher-order methods agree tightly; Euler sits at its
        # first-order error level, 1/n times an O(1) problem constant
        for a, b in (("rk2", "rk4"), ("rk2", "pole"), ("rk4", "pole")):
            assert np.linalg.norm(results[a] - results[b]) < 1e-4
        for other in ("rk2", "rk4", "pole"):
            assert np.linalg.norm(results["euler"] - results[other]) < 3e-3

    @pytest.mark.parametrize("method", ["rk4", "pole"])
    def test_reversibility(self, method):
        problem = make_problem(12, n=100)
        forward = transport.transport(problem, method)
        _, gamma_dot = transport.geodesic_state(problem.x, problem.w, 1.0)
        back = transport.transport(TransportProblem(
            forward.endpoint, -gamma_dot, forward.transported, 100), method)
        assert np.linalg.norm(back.transported - problem.v) < 5e-3

    def test_invalid_step_count(self):
        problem = make_problem(13)
        with pytest.raises(ValueError):
            TransportProblem(problem.x, problem.w, problem.v, 0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            transport.transport_integrated(make_problem(14), "rk7")
