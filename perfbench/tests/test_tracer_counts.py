"""Exact-count self-test of the benchmark's span tracer.

Call counts of the transport kernels follow from the step counts alone, so
these expected values are exact.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.append(str(HERE.parent.parent / "src"))

from shapetransport import bench, linalg, preshape, quotient, transport  # noqa: E402
from shapetransport.errors import RankDeficient  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


@pytest.fixture
def problem():
    return bench.sample_problem(3, 4, np.random.default_rng(7))


def with_steps(problem, n):
    return transport.TransportProblem(problem.x, problem.w, problem.v, n)


def test_default_trial_rhs_calls():
    # Reference 4 * (1100 + 2200), then RK4, RK2 and Euler over the default
    # steps, which sum to 1880.
    steps = sum(bench.DEFAULT_STEPS)
    assert steps == 1880
    with Tracer() as tracer:
        bench.run_convergence(bench.ExperimentConfig(trials=1))
    rhs = tracer.calls("transport.transport_ode_rhs")
    assert rhs == 4 * (1100 + 2200) + 4 * steps + 2 * steps + steps == 26360
    assert tracer.calls("bench._reference") == 1
    assert tracer.calls("transport.pole_ladder") == len(bench.DEFAULT_STEPS)


@pytest.mark.parametrize("n", [1, 4, 17])
def test_pole_ladder_counts(problem, n):
    with Tracer() as tracer:
        transport.pole_ladder(with_steps(problem, n))
    assert tracer.calls("quotient.quotient_log") == n + 1
    assert tracer.calls("transport.geodesic_state") == n


@pytest.mark.parametrize("n", [1, 7, 30])
def test_rk4_rhs_calls(problem, n):
    with Tracer() as tracer:
        transport.transport_integrated(with_steps(problem, n), "rk4")
    assert tracer.calls("transport.transport_ode_rhs") == 4 * n
    metrics = tracer.metrics()
    assert metrics["numpy.eigh.calls"][0] == 4 * n + 1  # + final projection


def test_every_binding_is_wrapped_and_restored(problem):
    originals = (transport.solve_skew_sylvester, preshape.optimal_rotation,
                 preshape.solve_sylvester_skew)
    with Tracer() as tracer:
        for func in (transport.solve_skew_sylvester, preshape.optimal_rotation,
                     preshape.solve_sylvester_skew):
            assert func.__wrapped__ in originals
        preshape.align(problem.x, problem.w)
        preshape.vertical_projection(problem.x, problem.v)
    assert tracer.calls("linalg.optimal_rotation") == 1
    assert tracer.calls("linalg.solve_sylvester_skew") == 1
    assert tracer.calls("linalg.solve_skew_sylvester") == 1
    assert (transport.solve_skew_sylvester, preshape.optimal_rotation,
            preshape.solve_sylvester_skew) == originals
    assert linalg.solve_skew_sylvester is originals[0]


def test_absent_function_is_reported_not_fatal(problem):
    with Tracer(traced=TRACED + ("linalg.merged_away",)) as tracer:
        quotient.quotient_log(problem.x, problem.w)
    assert tracer.absent == ["linalg.merged_away"]
    assert tracer.calls("linalg.merged_away") is None
    metrics = tracer.metrics()
    assert not any(name.startswith("linalg.merged_away") for name in metrics)
    assert metrics["quotient.quotient_log.calls"][0] == 1


def test_self_time_excludes_children(problem):
    with Tracer() as tracer:
        transport.transport_integrated(with_steps(problem, 5), "rk2")
    metrics = tracer.metrics()
    for name in TRACED:
        assert 0.0 <= metrics[f"{name}.self_ms"][0] <= metrics[f"{name}.total_ms"][0]
    # A leaf's self time is its total time.
    assert (metrics["transport.geodesic_state.self_ms"]
            == metrics["transport.geodesic_state.total_ms"])
    children = sum(metrics[f"{name}.total_ms"][0] for name in (
        "transport.geodesic_state", "transport.transport_ode_rhs",
        "preshape.exp", "preshape.to_tangent", "preshape.horizontal_projection"))
    outer = metrics["transport.transport_integrated.total_ms"][0]
    own = metrics["transport.transport_integrated.self_ms"][0]
    assert own == pytest.approx(outer - children, abs=1e-9)


def test_repeat_share_counts_exact_byte_repeats(problem):
    sym = problem.x @ problem.x.T
    rhs = problem.w @ problem.v.T - problem.v @ problem.w.T
    with Tracer() as tracer:
        for _ in range(3):
            linalg.solve_skew_sylvester(sym, rhs)
        linalg.solve_skew_sylvester(sym + 1e-3 * np.eye(3), rhs)
    share = tracer.metrics()["linalg.solve_skew_sylvester.repeat_share"][0]
    assert share == 2 / 4


def test_errors_are_counted(problem):
    flat = np.zeros((3, 4))
    flat[0] = [-3.0, -1.0, 1.0, 3.0]
    flat /= np.linalg.norm(flat)
    with Tracer() as tracer, pytest.raises(RankDeficient):
        quotient.check_representative(flat)
    assert tracer.metrics()["quotient.check_representative.errors"][0] == 1
