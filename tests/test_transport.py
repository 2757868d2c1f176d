import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapetransport import bench, linalg, preshape, quotient, transport
from shapetransport.errors import RankDeficient
from shapetransport.transport import TransportProblem

from conftest import (planar_transport, random_horizontal, random_preshape,
                      random_rotation)
from test_acceptance import SLOPE_BANDS


def make_problem(seed, m=3, k=4, n=100):
    rng = np.random.default_rng(seed)
    p = bench.sample_problem(m, k, rng)
    return TransportProblem(p.x, p.w, p.v, n)


def rk4_reference(problem, n_ref=1100):
    return transport.transport_integrated(
        TransportProblem(problem.x, problem.w, problem.v, n_ref),
        scheme="rk4").transported


def evict():
    """Transport along an unrelated geodesic, so that the next call is the
    first along its own."""
    transport.transport_integrated(make_problem(99, n=2), "rk2")


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

    def test_tiny_velocity_ends_where_exp_ends(self, rng):
        # only w = 0 is the constant state: at |w| = 1e-13 the curve moves
        for _ in range(50):
            x = random_preshape(rng, 3, 4)
            w = 1e-13 * random_horizontal(rng, x)
            gamma, _ = transport.geodesic_state(x, w, 1.0)
            assert np.abs(gamma - preshape.exp(x, w)).max() <= 1e-15


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
        # Heun, even though both are second order. The step runs in the
        # coordinates of an orthonormal basis y of the row span of x and w:
        # a first call steps v @ y and projects the result at the endpoint
        # e on e @ y, its repeat computes v @ y @ P with P the same step
        # taken on the identity with right-hand side u @ L(s), the ODE's
        # linear map at each node, Euler projecting its rows, and the
        # endpoint projection applied to its rows. Either lifts the result
        # back and centres it, and both agree with the step written out on
        # the full m-by-k matrices.
        problem = make_problem(15, n=1)
        x, w, v = problem.x, problem.w, problem.v
        endpoint = preshape.exp(x, w)

        def step(x, w, v, to_tangent):
            def f(s, vv):
                gamma, gamma_dot = transport.geodesic_state(x, w, s)
                return transport.transport_ode_rhs(gamma, gamma_dot, vv)

            k1 = f(0.0, v)
            if scheme == "euler":
                gamma, _ = transport.geodesic_state(x, w, 1.0)
                return preshape.horizontal_projection(
                    gamma, to_tangent(gamma, v + k1))
            if scheme == "rk2":
                return v + f(0.5, v + 0.5 * k1)
            k2 = f(0.5, v + 0.5 * k1)
            k3 = f(0.5, v + 0.5 * k2)
            k4 = f(1.0, v + k3)
            return v + 1 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        def at_endpoint(vv):
            return preshape.horizontal_projection(
                endpoint, preshape.to_tangent(endpoint, vv))

        y = np.linalg.qr(np.concatenate([x, w]).T)[0]
        x_r, w_r, v_r = x @ y, w @ y, v @ y
        size = x_r.size
        eye = np.eye(size)
        units = eye.reshape(size, *x_r.shape)
        # v @ l0, v @ lh and v @ l1 are the right-hand sides at s = 0, 1/2
        # and 1 on flattened span coordinates
        gamma, gamma_dot = transport.geodesic_state(
            x_r, w_r, np.array([0.0, 0.5, 1.0])[:, None, None, None])
        l0, lh, l1 = transport.transport_ode_rhs(
            gamma, gamma_dot, units).reshape(3, size, size)
        k1 = eye @ l0
        if scheme == "euler":
            end = gamma[2]
            op = preshape.horizontal_projection(end, preshape.remove_radial(
                end, (eye + k1).reshape(size, *x_r.shape))).reshape(size, size)
        elif scheme == "rk2":
            op = eye + (eye + 0.5 * k1) @ lh
        else:
            k2 = (eye + 0.5 * k1) @ lh
            k3 = (eye + 0.5 * k2) @ lh
            k4 = (eye + k3) @ l1
            op = eye + 1 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        e_r = endpoint @ y

        def at_endpoint_r(u):
            return preshape.horizontal_projection(
                e_r, preshape.remove_radial(e_r, u))

        op = at_endpoint_r(op.reshape(size, *x_r.shape)).reshape(size, size)
        moved = (at_endpoint_r(step(x_r, w_r, v_r, preshape.remove_radial)),
                 (v_r.reshape(-1) @ op).reshape(v_r.shape))
        full = at_endpoint(step(x, w, v, preshape.to_tangent))
        evict()
        for moved_r in moved:
            result = transport.transport_integrated(problem, scheme)
            assert np.array_equal(result.endpoint, endpoint)
            assert np.array_equal(result.transported,
                                  preshape.center(v + (moved_r - v_r) @ y.T))
            assert (np.abs(result.transported - full).max()
                    <= 1e-14 * max(1.0, np.linalg.norm(v)))

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    @pytest.mark.parametrize("k", [4, 12])
    @pytest.mark.parametrize("raw", [False, True], ids=["horizontal", "raw"])
    def test_span_finish_is_the_full_projection(self, scheme, k, raw):
        # The first call and its repeat, which applies P, against the
        # endpoint projection of the lifted result on full m-by-k matrices.
        # At k = 4 the span basis y holds the translation direction, at
        # k = 12 it does not; a raw v is neither tangent nor centred.
        problem = make_problem(27, k=k, n=10)
        x, w, v = problem.x, problem.w, problem.v
        if raw:
            v = np.random.default_rng(27).standard_normal(x.shape)
            problem = TransportProblem(x, w, v, problem.n)
        y = np.linalg.qr(np.concatenate([x, w]).T)[0]
        v_r = v @ y
        moved = transport._integrate(x @ y, w @ y, v_r, problem.n, scheme)
        endpoint = preshape.exp(x, w)
        want = preshape.horizontal_projection(endpoint, preshape.to_tangent(
            endpoint, v + (moved - v_r) @ y.T))
        evict()
        for _ in range(2):
            got = transport.transport_integrated(problem, scheme).transported
            assert (np.abs(got - want).max()
                    <= 1e-14 * max(1.0, np.linalg.norm(v)))
        assert transport._last[-1] is not None

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


def _t(a):
    return np.swapaxes(a, -1, -2)


# The stacked kernels as functions of a state (gamma, gamma') and a vector.
KERNELS = {
    "transport_ode_rhs": transport.transport_ode_rhs,
    "solve_skew_sylvester": lambda g, d, v:
        linalg.solve_skew_sylvester(g @ _t(g), v @ _t(g) - g @ _t(v)),
    "solve_sylvester_skew": lambda g, d, v:
        linalg.solve_sylvester_skew(g, v),
    "remove_radial": lambda g, d, v: preshape.remove_radial(g, v),
    "to_tangent": lambda g, d, v: preshape.to_tangent(g, v),
    "vertical_projection": lambda g, d, v:
        preshape.vertical_projection(g, v),
    "horizontal_projection": lambda g, d, v:
        preshape.horizontal_projection(g, v),
}


class TestStackedKernels:
    """A stack (..., m, k) of vectors, at one point or against a stack of
    points, gives what a loop over the points and vectors gives."""

    @pytest.mark.parametrize("kernel", [
        "transport_ode_rhs", "solve_skew_sylvester", "solve_sylvester_skew",
        "remove_radial", "to_tangent", "vertical_projection",
        "horizontal_projection"])
    def test_stack_matches_a_loop(self, rng, kernel):
        f = KERNELS[kernel]
        # states on two geodesics, each against a row of four vectors
        states = []
        for s in (0.4, 0.9):
            x = random_preshape(rng, 3, 5)
            states.append(transport.geodesic_state(
                x, random_horizontal(rng, x), s))
        stack = rng.standard_normal((2, 4, 3, 5))
        one_point = f(*states[0], stack)
        looped = np.array([[f(*states[0], v) for v in row] for row in stack])
        assert one_point.shape == looped.shape
        assert np.abs(one_point - looped).max() <= 1e-14
        gamma, gamma_dot = (np.array(a)[:, None] for a in zip(*states))
        points = f(gamma, gamma_dot, stack)
        looped = np.array([[f(*state, v) for v in row]
                           for state, row in zip(states, stack)])
        assert points.shape == looped.shape
        assert np.abs(points - looped).max() <= 1e-14


class TestSingleVectorKernels:
    """One state and one vector give the bits, sign bits included, of the
    one-element stack. The two kernels with a 2-D branch,
    `solve_skew_sylvester` and `transport_ode_rhs`, give those of the
    textbook formula, and the rank test refuses the same S either way."""

    @staticmethod
    def textbook_solve(sym, rhs):
        lam, u = np.linalg.eigh(sym)
        denom = lam[:, None] + lam[None, :]
        np.fill_diagonal(denom, np.inf)
        a = u @ (u.T @ rhs @ u / denom) @ u.T
        return 0.5 * (a - a.T)

    @staticmethod
    def assert_same_bits(a, b):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("m, k", [(2, 3), (3, 4), (3, 6), (5, 8)])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_one_vector_is_the_one_element_stack(self, rng, kernel, m, k):
        f = KERNELS[kernel]
        for _ in range(10):
            x = random_preshape(rng, m, k)
            g, d = transport.geodesic_state(x, random_horizontal(rng, x),
                                            rng.uniform())
            v = rng.standard_normal((m, k))
            one = f(g, d, v)
            self.assert_same_bits(one, f(g, d, v[None])[0])
            self.assert_same_bits(one, f(g[None], d[None], v[None])[0])

    @pytest.mark.parametrize("m, r", [(2, 3), (3, 4), (3, 6), (5, 8)])
    def test_solve_is_the_textbook_formula(self, rng, m, r):
        for _ in range(20):
            gamma = rng.standard_normal((m, r))
            b = rng.standard_normal((m, m))
            sym, rhs = gamma @ gamma.T, b - b.T
            self.assert_same_bits(linalg.solve_skew_sylvester(sym, rhs),
                                  self.textbook_solve(sym, rhs))

    @pytest.mark.parametrize("m, r", [(2, 3), (3, 4), (3, 6), (5, 8)])
    def test_rhs_is_the_textbook_formula(self, rng, m, r):
        for _ in range(20):
            gamma, gamma_dot, v = rng.standard_normal((3, m, r))
            vg = v @ gamma_dot.T
            a = self.textbook_solve(gamma @ gamma.T, vg.T - vg)
            expected = a @ gamma - np.einsum("ij,ij->", v, gamma_dot) * gamma
            self.assert_same_bits(
                transport.transport_ode_rhs(gamma, gamma_dot, v), expected)

    @pytest.mark.parametrize("lam, raised", [
        pytest.param((0.0, 1.01 * linalg.RANK_RTOL, 1.0), None,
                     id="just-above-rtol"),
        pytest.param((0.0, 0.99 * linalg.RANK_RTOL, 1.0), RankDeficient,
                     id="just-below-rtol"),
        pytest.param((0.0, 0.0, 0.0), RankDeficient, id="zero"),
        pytest.param((-2.0, -1.0, -0.5), RankDeficient, id="negative"),
        # eigh refuses a NaN matrix before the rank test sees it
        pytest.param((0.0, np.nan, 1.0), np.linalg.LinAlgError, id="nan"),
    ])
    def test_rank_test_is_the_same_for_one_and_a_stack(self, lam, raised):
        q = random_rotation(np.random.default_rng(3), 3)
        sym = q @ np.diag(lam) @ q.T
        b = np.random.default_rng(4).standard_normal((3, 3))
        outcomes = []
        for s, rhs in ((sym, b - b.T), (sym[None], b - b.T),
                       (sym, (b - b.T)[None]), (sym[None], (b - b.T)[None])):
            try:
                linalg.solve_skew_sylvester(s, rhs)
            except (RankDeficient, np.linalg.LinAlgError) as err:
                outcomes.append(type(err))
            else:
                outcomes.append(None)
        assert outcomes == [raised] * 4


class TestOperator:
    def test_pole_has_no_operator(self):
        # the span operator is built only for the integrated schemes
        problem = make_problem(16)
        with pytest.raises(ValueError, match="unknown scheme"):
            transport.transport_integrated(problem, "pole")

    # a bool is an int to isinstance, not a step count
    @pytest.mark.parametrize("n", [0, -1, 2.5, True, np.bool_(True)])
    def test_step_count_below_one_rejected(self, n):
        problem = make_problem(16)
        with pytest.raises(ValueError, match="step count"):
            TransportProblem(problem.x, problem.w, problem.v, n)

    @pytest.mark.parametrize("cut", ["rows", "columns"])
    def test_mismatched_shapes_rejected(self, cut):
        # v[:1] and v[:, :1] would broadcast against x and w
        problem = make_problem(16)
        v = problem.v[:1] if cut == "rows" else problem.v[:, :1]
        with pytest.raises(ValueError, match="shape"):
            TransportProblem(problem.x, problem.w, v, 10)

    @pytest.mark.parametrize("name,value", [
        ("x", np.nan), ("w", np.inf), ("v", np.nan), ("v", -np.inf)])
    def test_non_finite_arrays_rejected(self, name, value):
        # NaN in v gave an all-NaN result, inf in w a raw LinAlgError
        problem = make_problem(16)
        arrays = {a: getattr(problem, a).copy() for a in "xwv"}
        arrays[name][1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            TransportProblem(n=10, **arrays)

    def test_numpy_integer_step_count_accepted(self):
        problem = make_problem(16)
        assert TransportProblem(problem.x, problem.w, problem.v,
                                np.int64(3)).n == 3

    def test_isometry_on_the_horizontal_space(self):
        # the transports of an orthonormal horizontal basis at x stay
        # orthonormal, to the tolerance of test_isometry_and_angle
        problem = make_problem(10, n=100)
        x, size = problem.x, problem.x.size
        units = np.eye(size).reshape(size, *x.shape)
        proj = preshape.horizontal_projection(x, preshape.to_tangent(x, units))
        _, sig, vt = np.linalg.svd(proj.reshape(size, size))
        basis = vt[sig > 0.5]
        assert len(basis) == 5  # mk - m - 1 - m(m-1)/2 for m=3, k=4
        moved = np.array([transport.transport_integrated(TransportProblem(
            x, problem.w, b.reshape(x.shape), 100), "rk4").transported.ravel()
            for b in basis])
        assert np.abs(moved @ moved.T - np.eye(len(basis))).max() < 2e-3

    @pytest.mark.parametrize("k", [4, 30, 2000])
    def test_repeats_step_until_break_even_then_use_the_matrix(
            self, k, monkeypatch):
        # m = 3: the operator's side is 3 * min(k, 6) at any k
        side = 3 * min(k, 6)
        calls = {"transport_ode_rhs": [], "geodesic_state": []}

        def counting(name):
            func = getattr(transport, name)

            def counted(*args):
                calls[name].append(1)
                return func(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(transport, name, counting(name))
        # stepping and the build each take one geodesic_state call per block
        # of steps, and the build one transport_ode_rhs call per block:
        # n = 10 fits in one block and n = 40 takes three
        for n in (10, 40):
            problem = make_problem(17, k=k, n=n)
            other = make_problem(18, k=k, n=n)
            x, w, blocks = problem.x, problem.w, -(-n // transport._BLOCK)
            # each round starts along another geodesic; the second must
            # repeat the first
            for _ in range(2):
                transport.transport_integrated(other, "rk4")
                results, counts, states = [], [], []
                for _ in range(4):
                    for made in calls.values():
                        made.clear()
                    results.append(
                        transport.transport_integrated(problem, "rk4"))
                    counts.append(len(calls["transport_ode_rhs"]))
                    states.append(len(calls["geodesic_state"]))
                assert counts == [4 * n, blocks, 0, 0]
                assert states == [blocks, blocks, 0, 0]
                assert transport._last[-1].shape == (side, side)
                for result in results:
                    assert np.array_equal(result.endpoint, preshape.exp(x, w))
                stepped = results[0].transported
                applied = results[1].transported
                for result in results[2:]:
                    assert np.array_equal(result.transported, applied)
                assert np.abs(stepped - applied).max() < 1e-14

    def test_first_repeat_builds_at_any_side(self, monkeypatch):
        # m = 7, k = 14: an operator of side 98, which the first repeat
        # builds however dear the build is against one stepped call
        rhs = transport.transport_ode_rhs
        calls = []
        monkeypatch.setattr(transport, "transport_ode_rhs",
                            lambda *args: calls.append(1) or rhs(*args))
        problem = make_problem(17, m=7, k=14, n=10)
        evict()
        results, counts = [], []
        for _ in range(4):
            calls.clear()
            results.append(transport.transport_integrated(problem, "rk4"))
            counts.append(len(calls))
        assert counts == [4 * problem.n, 1, 0, 0]
        assert transport._last[-1].shape == (98, 98)
        stepped, applied = (result.transported for result in results[:2])
        for result in results[2:]:
            assert np.array_equal(result.transported, applied)
        assert np.abs(stepped - applied).max() < 1e-14

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    @pytest.mark.parametrize("m,k", [(2, 3), (3, 12), (5, 40)])
    def test_operator_is_the_integration_of_the_unit_matrices(
            self, scheme, m, k):
        problem = make_problem(23, m=m, k=k)
        y = np.linalg.qr(np.concatenate([problem.x, problem.w]).T)[0]
        x_r, w_r = problem.x @ y, problem.w @ y
        size = x_r.size
        units = np.eye(size).reshape(size, *x_r.shape)
        for n in (1, 10, 37):
            op = transport._operator(x_r, w_r, n, scheme)
            integrated = transport._integrate(x_r, w_r, units, n, scheme)
            assert np.abs(op - integrated.reshape(size, size)).max() <= 1e-13

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    def test_zero_velocity_keeps_the_vector(self, scheme):
        # w = 0 has one constant state, which the build broadcasts
        problem = make_problem(26, k=12, n=20)
        problem = TransportProblem(problem.x, np.zeros_like(problem.w),
                                   problem.v, 20)
        evict()
        for _ in range(2):
            result = transport.transport_integrated(problem, scheme)
            assert np.abs(result.transported - problem.v).max() < 1e-15
        assert transport._last[-1] is not None

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    @pytest.mark.parametrize("block", [1, 3])
    def test_blocks_do_not_change_the_operator(self, scheme, block,
                                               monkeypatch):
        # the operator to rounding; stepping, whose blocks only group the
        # states, bit for bit on one vector and on the unit stack
        problem = make_problem(24, k=12, n=10)
        y = np.linalg.qr(np.concatenate([problem.x, problem.w]).T)[0]
        x_r, w_r, v_r = problem.x @ y, problem.w @ y, problem.v @ y
        size = x_r.size
        vectors = (v_r, np.eye(size).reshape(size, *x_r.shape))

        def run():
            return (transport._operator(x_r, w_r, problem.n, scheme),
                    *(transport._integrate(x_r, w_r, v, problem.n, scheme)
                      for v in vectors))

        assert transport._BLOCK >= problem.n
        whole, *stepped = run()
        monkeypatch.setattr(transport, "_BLOCK", block)
        blocked, *stepped_blocked = run()
        assert np.abs(blocked - whole).max() <= 1e-14
        for got, want in zip(stepped_blocked, stepped, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_operator_memory_does_not_grow_with_n(self, scheme):
        problem = make_problem(25, k=12)
        y = np.linalg.qr(np.concatenate([problem.x, problem.w]).T)[0]
        x_r, w_r = problem.x @ y, problem.w @ y
        peaks = []
        for n in (transport._BLOCK, 40 * transport._BLOCK):
            tracemalloc.start()
            try:
                transport._operator(x_r, w_r, n, scheme)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_mutating_outputs_or_inputs_cannot_change_later_results(self):
        problem, other = make_problem(19), make_problem(20)
        evict()
        transport.transport_integrated(problem, "rk4")
        held = transport.transport_integrated(problem, "rk4")  # builds P
        endpoint, transported = held.endpoint.copy(), held.transported.copy()
        held.endpoint[:] = 0.0
        held.transported[:] = 0.0
        later = transport.transport_integrated(problem, "rk4")
        assert np.array_equal(later.endpoint, endpoint)
        assert np.array_equal(later.transported, transported)
        # the caller overwrites x in place after P was built for it
        x = problem.x.copy()
        moved = TransportProblem(x, problem.w, problem.v, problem.n)
        for _ in range(2):
            transport.transport_integrated(moved, "rk4")
        x[:] = other.x
        got = transport.transport_integrated(moved, "rk4")
        evict()
        want = transport.transport_integrated(TransportProblem(
            other.x, problem.w, problem.v, problem.n), "rk4")
        assert np.array_equal(got.endpoint, want.endpoint)
        assert np.array_equal(got.transported, want.transported)


class TestProblemInputs:
    """TransportProblem keeps x, w and v as float arrays and refuses what
    is not one: nested lists raised a raw AttributeError, a complex x gave
    a complex result and an empty shape a raw IndexError or an empty
    result."""

    @pytest.mark.parametrize("method", transport.METHODS)
    def test_nested_lists_give_the_array_bits(self, method):
        problem = make_problem(29, n=10)
        lists = TransportProblem(problem.x.tolist(), problem.w.tolist(),
                                 problem.v.tolist(), problem.n)
        results = []
        for given in (problem, lists):
            evict()
            # the second integrated call applies P
            results += [transport.transport(given, method) for _ in range(2)]
        for got, want in zip(results[2:], results[:2], strict=True):
            assert np.array_equal(got.endpoint, want.endpoint)
            assert np.array_equal(got.transported, want.transported)

    def test_float_arrays_pass_uncopied(self):
        problem = make_problem(29)
        again = TransportProblem(problem.x, problem.w, problem.v, 3)
        for name in "xwv":
            assert getattr(again, name) is getattr(problem, name)
        ints = TransportProblem(*(np.ones((3, 4), dtype=int),) * 3, 3)
        assert ints.x.dtype == np.float64

    @pytest.mark.parametrize("entry", [1j, None, "1.0"],
                             ids=["complex", "object", "string"])
    @pytest.mark.parametrize("name", ["x", "w", "v"])
    def test_non_real_entries_rejected(self, name, entry):
        problem = make_problem(30)
        arrays = {a: getattr(problem, a).tolist() for a in "xwv"}
        arrays[name][1][2] = entry
        with pytest.raises(ValueError, match="real entries"):
            TransportProblem(n=10, **arrays)

    def test_complex_array_rejected(self):
        problem = make_problem(30)
        with pytest.raises(ValueError, match="real entries"):
            TransportProblem(problem.x.astype(complex), problem.w,
                             problem.v, 10)

    def test_ragged_lists_rejected(self):
        problem = make_problem(30)
        ragged = problem.x.tolist()
        ragged[1] = ragged[1][:-1]
        with pytest.raises(ValueError):
            TransportProblem(ragged, problem.w, problem.v, 10)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)], ids=["m=0", "k=0"])
    def test_empty_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            TransportProblem(*(np.zeros(shape),) * 3, 10)


class TestSubGeodesics:
    """n steps along the geodesic are n one-step transports along its
    pieces t -> exp(gamma(i/n), t gamma'(i/n) / n), i < n: a check of the
    rows each stage reads that never uses more than one step's table."""

    @pytest.mark.parametrize("scheme", ["euler", "rk2", "rk4"])
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("n", [17, 40])  # past one and two blocks
    def test_steps_chain_one_step_transports(self, scheme, m, n):
        problem = make_problem(31, m=m, k=8, n=n)
        y = np.linalg.qr(np.concatenate([problem.x, problem.w]).T)[0]
        x_r, w_r, v_r = problem.x @ y, problem.w @ y, problem.v @ y
        chained, op = v_r, np.eye(x_r.size)
        for i in range(n):
            start, velocity = transport.geodesic_state(x_r, w_r, i / n)
            velocity = velocity / n
            chained = transport._integrate(start, velocity, chained, 1, scheme)
            op = op @ transport._operator(start, velocity, 1, scheme)
        stepped = transport._integrate(x_r, w_r, v_r, n, scheme)
        assert np.abs(stepped - chained).max() <= 1e-13
        assert np.abs(transport._operator(x_r, w_r, n, scheme)
                      - op).max() <= 1e-13


@st.composite
def geodesics(draw):
    m = draw(st.integers(2, 5))
    k = draw(st.integers(max(3, m), 12))
    return m, k, draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))


def sylvester_condition(problem, n):
    """Largest ratio of the largest to the second-smallest eigenvalue of
    gamma gamma^T over the half-step abscissae of n steps."""
    s = np.arange(2 * n + 1) / (2 * n)
    gamma, _ = transport.geodesic_state(problem.x, problem.w, s[:, None, None])
    lam = np.linalg.eigvalsh(gamma @ gamma.swapaxes(-1, -2))
    return (lam[:, -1] / lam[:, 1]).max()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(geodesics(), st.sampled_from(sorted(transport.SCHEMES)))
def test_operator_agrees_with_stepping(geodesic, scheme):
    # The second call along a geodesic builds and applies P. With
    # k = m every configuration has rank m - 1, and a geodesic that passes
    # near rank m - 2 makes the Sylvester solves ill-conditioned: there the
    # two paths, each exact to rounding, agree to about 3e-17 times the
    # condition number instead.
    m, k, n, seed = geodesic
    problem = make_problem(seed, m=m, k=k, n=n)
    evict()
    try:
        stepped = transport.transport_integrated(problem, scheme)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            transport.transport_integrated(problem, scheme)
        return
    applied = transport.transport_integrated(problem, scheme)
    assert transport._last[-1] is not None
    tol = (max(1e-13, 1e-16 * sylvester_condition(problem, n))
           * max(1.0, np.linalg.norm(problem.v)))
    assert np.abs(applied.transported - stepped.transported).max() <= tol
    assert preshape.is_horizontal(applied.endpoint, applied.transported,
                                  tol=tol)


class TestPoleLadder:
    def test_zero_vector(self):
        problem = make_problem(6, n=7)
        problem = TransportProblem(problem.x, problem.w,
                                   np.zeros_like(problem.v), 7)
        result = transport.pole_ladder(problem)
        assert np.linalg.norm(result.transported) < 1e-12

    def test_alpha_below_one_rejected(self):
        # and an alpha that is not finite, whose scale n^alpha is inf or nan,
        # or not a real number: a bool is no more an alpha than a count
        for alpha in (0.5, np.nan, np.inf, True, np.True_, "2", None, 2j):
            with pytest.raises(ValueError, match="alpha"):
                transport.pole_ladder(make_problem(6), alpha=alpha)
        # and one whose scale n^alpha = 100^200 overflows a float
        with pytest.raises(ValueError, match="alpha"):
            transport.pole_ladder(make_problem(6, n=100), alpha=200)

    @pytest.mark.parametrize("alpha", [
        2, 2.0, np.int64(2), np.int32(2), np.float64(2.0), np.float32(2.0)])
    def test_python_and_numpy_alphas_accepted(self, alpha):
        problem = make_problem(6, n=7)
        assert transport.ladder_scale(7, alpha) == 49.0
        assert np.array_equal(
            transport.transport(problem, "pole", alpha=alpha).transported,
            transport.pole_ladder(problem, alpha=2.0).transported)

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

    def test_steep_alpha_is_not_zero(self):
        # alpha = 3.5 at n = 100: the last log spans |v| / 100^3.5 = 1e-7
        problem = make_problem(8)
        result = transport.pole_ladder(problem, alpha=3.5)
        assert np.linalg.norm(result.transported - rk4_reference(problem)) < 1e-4

    def test_output_horizontal(self):
        problem = make_problem(9, n=25)
        result = transport.pole_ladder(problem)
        assert preshape.is_horizontal(result.endpoint, result.transported,
                                      tol=1e-8)


class TestPlanarOracle:
    """Every method against the exact transport of planar shapes (m = 2),
    conftest.planar_transport."""

    @pytest.mark.parametrize("k", [3, 4, 5, 8, 20])
    def test_one_rung_ladder_and_fine_rk4_are_exact(self, k):
        for seed in range(2):
            problem = make_problem(seed, m=2, k=k, n=1)
            truth = planar_transport(problem.x, problem.w, problem.v)
            ladder = transport.pole_ladder(problem).transported
            assert np.abs(ladder - truth).max() < 1e-13
            assert np.abs(rk4_reference(problem) - truth).max() < 1e-13

    def test_orders_against_the_truth(self):
        # the criterion-1 bands; the ladder is exact in one rung on this
        # symmetric space, so its error is rounding amplified by n^alpha.
        # Each n is taken twice: the second integrated call applies P.
        ns = np.array([10, 20, 50, 100, 200])
        slopes = {scheme: ([], []) for scheme in transport.SCHEMES}
        for seed in range(5):
            problem = make_problem(seed, m=2, k=4)
            truth = planar_transport(problem.x, problem.w, problem.v)
            for method in transport.METHODS:
                errs = np.array([[np.linalg.norm(transport.transport(
                    TransportProblem(problem.x, problem.w, problem.v, int(n)),
                    method).transported - truth) for _ in range(2)]
                    for n in ns]).T
                if method == "pole":
                    assert (errs <= 1e-14 * ns**2).all()
                    continue
                for fitted, call in zip(slopes[method], errs, strict=True):
                    fitted.append(np.polyfit(np.log(ns), np.log(call), 1)[0])
        for scheme, calls in slopes.items():
            lo, hi = SLOPE_BANDS[scheme]
            for fitted in calls:
                assert lo <= np.median(fitted) <= hi


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


class TestEquivariance:
    """Transport commutes with rotating the landmarks and with relabelling
    them; relabelling changes the span basis of the integrated schemes."""

    TOL = {"euler": 1e-14, "rk2": 1e-14, "rk4": 1e-14, "pole": 1e-12}

    @pytest.mark.parametrize("k", [4, 12])
    @pytest.mark.parametrize("method", transport.METHODS)
    def test_rotation(self, rng, method, k):
        problem = make_problem(21, k=k, n=10)
        r = random_rotation(rng, 3)
        base = transport.transport(problem, method)
        moved = transport.transport(TransportProblem(
            r @ problem.x, r @ problem.w, r @ problem.v, 10), method)
        assert np.abs(moved.endpoint - r @ base.endpoint).max() < 1e-14
        assert (np.abs(moved.transported - r @ base.transported).max()
                < self.TOL[method])

    @pytest.mark.parametrize("k", [4, 12])
    @pytest.mark.parametrize("method", transport.METHODS)
    def test_relabelling(self, rng, method, k):
        problem = make_problem(22, k=k, n=10)
        perm = rng.permutation(k)
        base = transport.transport(problem, method)
        moved = transport.transport(TransportProblem(
            problem.x[:, perm], problem.w[:, perm], problem.v[:, perm], 10),
            method)
        assert np.abs(moved.endpoint - base.endpoint[:, perm]).max() < 1e-14
        assert (np.abs(moved.transported - base.transported[:, perm]).max()
                < self.TOL[method])

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(geodesics(), st.sampled_from(transport.METHODS))
    def test_random_sizes(self, geodesic, method):
        # Both moves at random m and k. Rounding grows with the Sylvester
        # condition, as in test_operator_agrees_with_stepping, and the
        # ladder rescales its last log by n^alpha = n^2.
        m, k, n, seed = geodesic
        problem = make_problem(seed, m=m, k=k, n=n)
        rng = np.random.default_rng(seed)
        r, perm = random_rotation(rng, m), rng.permutation(k)
        moves = ((lambda a: r @ a), (lambda a: a[:, perm]))
        try:
            base = transport.transport(problem, method)
        except RankDeficient:
            for move in moves:
                with pytest.raises(RankDeficient):
                    transport.transport(TransportProblem(
                        move(problem.x), move(problem.w), move(problem.v), n),
                        method)
            return
        tol = 1e-14 * sylvester_condition(problem, n) * (
            n * n if method == "pole" else 1)
        for move in moves:
            moved = transport.transport(TransportProblem(
                move(problem.x), move(problem.w), move(problem.v), n), method)
            assert np.abs(moved.endpoint - move(base.endpoint)).max() < 1e-14
            assert (np.abs(moved.transported - move(base.transported)).max()
                    <= tol)


class TestSingularStratum:
    @pytest.mark.parametrize("method", transport.METHODS)
    def test_planar_configuration_in_space(self, rng, method):
        # m = 3 with every landmark in one plane: rank exactly m - 1
        x = np.zeros((3, 6))
        x[:2] = rng.standard_normal((2, 6))
        x = preshape.project_to_preshape(x)
        assert preshape.configuration_rank(x) == 2
        assert quotient.check_representative(x) is x
        w = 0.5 * random_horizontal(rng, x)
        v = random_horizontal(rng, x)
        result = transport.transport(TransportProblem(x, w, v, 20), method)
        assert np.all(np.isfinite(result.transported))
        assert preshape.is_horizontal(result.endpoint, result.transported,
                                      tol=1e-8)
