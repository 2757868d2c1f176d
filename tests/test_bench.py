import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shapetransport import bench, preshape, transport
from shapetransport.errors import InsufficientData, RankDeficient

SMALL_CFG = bench.ExperimentConfig(
    m=3, k=4, step_counts=(10, 20, 50), methods=("euler", "rk4", "pole"),
    n_ref=200, trials=2, seed=0)


@pytest.fixture(scope="module")
def small_records():
    return bench.run_convergence(SMALL_CFG)


class TestSampleProblem:
    def test_deterministic(self):
        a = bench.sample_problem(3, 4, np.random.default_rng(42))
        b = bench.sample_problem(3, 4, np.random.default_rng(42))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.v, b.v)

    def test_orthonormal_horizontal_pair(self, rng):
        p = bench.sample_problem(3, 4, rng)
        assert abs(np.linalg.norm(p.w) - 1.0) < 1e-12
        assert abs(np.linalg.norm(p.v) - 1.0) < 1e-12
        assert abs(np.sum(p.v * p.w)) < 1e-12
        assert preshape.is_horizontal(p.x, p.w)
        assert preshape.is_horizontal(p.x, p.v)

    def test_sampling_audit(self, rng):
        # the full-rank condition holds almost surely; no escapes expected
        for _ in range(1000):
            p = bench.sample_problem(3, 4, rng)
            assert preshape.configuration_rank(p.x) == 3


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(m=1),
        dict(k=2),
        dict(step_counts=(10, 10, 20)),
        dict(step_counts=(20, 10)),
        dict(step_counts=(10, 2000)),
        dict(methods=("euler", "rk9")),
        dict(trials=0),
        dict(alpha=0.5),
        dict(m=4, k=3),
        dict(methods=("euler", "euler")),
        dict(step_counts=()),
        dict(methods=()),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(m=3.0),
        dict(k=4.5),
        dict(trials=2.5),
        dict(n_ref=1100.5),
        dict(step_counts=(10, 20.5)),
        dict(alpha=400),
        dict(seed=1.5),
        dict(seed=-1),
        # bools are ints to isinstance, not counts
        dict(trials=True),
        dict(seed=False),
        dict(seed=True),
        dict(step_counts=(True, 20)),
        # and an alpha that is not a real number
        dict(alpha=True),
        dict(alpha="2"),
        dict(alpha=None),
        # and a field that should be iterable but is not
        dict(step_counts=10),
        dict(methods=5),
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            bench.ExperimentConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = bench.ExperimentConfig(
            m=np.int64(3), k=np.int32(4), step_counts=(np.int64(10), 20),
            n_ref=np.int64(1100), trials=np.int64(2))
        assert (cfg.m, cfg.k, cfg.n_ref, cfg.trials) == (3, 4, 1100, 2)

    @pytest.mark.parametrize("make", [iter, list])
    def test_iterable_fields_are_kept_as_tuples(self, make):
        # an iterator would be spent by validation and a list is unhashable
        cfg = bench.ExperimentConfig(step_counts=make((10, 20, 50)),
                                     methods=make(("rk4",)), n_ref=200,
                                     trials=1)
        assert cfg.step_counts == (10, 20, 50) and cfg.methods == ("rk4",)
        assert hash(cfg) == hash(bench.ExperimentConfig(
            step_counts=(10, 20, 50), methods=("rk4",), n_ref=200, trials=1))
        assert [r.n for r in bench.run_convergence(cfg)] == [10, 20, 50]

    @pytest.mark.parametrize("kwargs", [
        dict(methods="rk4"),
        dict(methods=b"rk4"),
        dict(step_counts="10,20"),
        # iterated, these bytes would be the valid step counts (10, 20)
        dict(step_counts=b"\n\x14"),
        dict(step_counts=bytearray(b"\n\x14")),
    ])
    def test_string_fields_rejected(self, kwargs):
        with pytest.raises(ValueError, match="^step counts and methods must "
                           "not be a string: "):
            bench.ExperimentConfig(**{"n_ref": 100, "methods": ("rk4",),
                                      "trials": 1, **kwargs})


class TestRunConvergence:
    def test_self_comparison_error_vanishes(self):
        cfg = bench.ExperimentConfig(step_counts=(1100,), methods=("rk4",),
                                     n_ref=1100, trials=1)
        records = bench.run_convergence(cfg)
        assert len(records) == 1
        assert records[0].error < 1e-12

    def test_record_count_and_order(self, small_records):
        cfg = SMALL_CFG
        assert len(small_records) == (len(cfg.methods) * len(cfg.step_counts)
                                      * cfg.trials)
        keys = [(r.method, r.n, r.trial) for r in small_records]
        assert keys == sorted(keys)

    def test_euler_errors_decrease(self, small_records):
        for trial in range(SMALL_CFG.trials):
            errs = [r.error for r in small_records
                    if r.method == "euler" and r.trial == trial]
            inversions = sum(a <= b for a, b in zip(errs, errs[1:]))
            assert inversions <= 1

    def test_no_failures_on_generic_problems(self, small_records):
        assert not any(r.failed for r in small_records)

    def test_failing_method_records_nan(self, monkeypatch, tmp_path):
        # a method that raises fails its own records; the others still run
        def fail(*_args, **_kwargs):
            raise RankDeficient("rank < m-1")

        monkeypatch.setattr(transport, "pole_ladder", fail)
        cfg = bench.ExperimentConfig(step_counts=(10, 20, 50),
                                     methods=("rk4", "pole"), n_ref=200,
                                     trials=1)
        records = bench.run_convergence(cfg)
        by_method = {m: [r for r in records if r.method == m]
                     for m in cfg.methods}
        assert [r.n for r in by_method["pole"]] == [10, 20, 50]
        assert all(r.failed and math.isnan(r.error) for r in by_method["pole"])
        assert [r.n for r in by_method["rk4"]] == [10, 20, 50]
        assert not any(r.failed for r in by_method["rk4"])
        path = tmp_path / "failed.csv"
        bench.write_csv(records, path)
        errors = {}
        for line in path.read_text().splitlines()[2:]:
            method, _, _, error, *_ = line.split(",")
            errors.setdefault(method, []).append(error)
        assert errors["pole"] == ["nan"] * 3
        assert all(math.isfinite(float(e)) for e in errors["rk4"])


class TestEstimateOrder:
    def test_exact_power_laws(self):
        for power, expected in ((1, -1.0), (2, -2.0)):
            records = [bench.ConvergenceRecord("pole", n, 0, 0.7 / n**power,
                                               3, 4, 0)
                       for n in (10, 20, 50, 100)]
            slope, residual = bench.estimate_order(records, "pole")
            assert abs(slope - expected) < 1e-10
            assert residual < 1e-10

    def test_floor_records_excluded(self):
        records = [bench.ConvergenceRecord("rk4", n, 0, err, 3, 4, 0)
                   for n, err in ((10, 1e-2), (20, 1e-3), (50, 1e-4),
                                  (100, 1e-14), (200, 1e-14))]
        slope, _ = bench.estimate_order(records, "rk4")
        assert slope < -2

    def test_insufficient_data(self):
        records = [bench.ConvergenceRecord("rk2", 10, 0, 1e-2, 3, 4, 0)]
        with pytest.raises(InsufficientData):
            bench.estimate_order(records, "rk2")
        # three records at one step count leave the slope undetermined
        records = [bench.ConvergenceRecord("rk2", 10, t, e, 3, 4, 0)
                   for t, e in enumerate((1e-2, 2e-2, 3e-2))]
        with pytest.raises(InsufficientData, match="step counts"):
            bench.estimate_order(records, "rk2")

    def test_euler_slope_on_real_run(self, small_records):
        slope, _ = bench.estimate_order(small_records, "euler")
        assert -1.2 <= slope <= -0.8
        assert -1.2 <= bench.median_trial_slope(small_records, "euler") <= -0.8


class TestRecord:
    @pytest.mark.parametrize("fields, message", [
        pytest.param(("rk9", 10, 0, 1e-3, 3, 4, 0), "unknown method 'rk9'",
                     id="unknown-method"),
        pytest.param(("rk4", 0, 0, 1e-3, 3, 4, 0),
                     "step count must be >= 1: 0", id="zero-steps"),
        pytest.param(("rk4", True, 0, 1e-3, 3, 4, 0),
                     "step count must be >= 1: True", id="bool-steps"),
        pytest.param(("rk4", 2.5, 0, 1e-3, 3, 4, 0),
                     "step count must be >= 1: 2.5", id="float-steps"),
        pytest.param(("rk4", 10, 0, -1e-3, 3, 4, 0),
                     "error must be >= 0: -0.001", id="negative-error"),
        pytest.param(("rk4", 10, True, 0.1, 3, 4, 0),
                     "trial, m and k must be integers: (True, 3, 4)",
                     id="bool-trial"),
        pytest.param(("rk4", 10, 0, 0.1, 1.5, 4, 0),
                     "trial, m and k must be integers: (0, 1.5, 4)",
                     id="float-m"),
        pytest.param(("rk4", 10, 0, 0.1, 3, None, 0),
                     "trial, m and k must be integers: (0, 3, None)",
                     id="none-k"),
        pytest.param(("rk4", 10, 0, 0.1, 3, 4, -3),
                     "seed must be a non-negative integer: -3",
                     id="negative-seed"),
        pytest.param(("rk4", 10, 0, 0.1, 3, 4, 1.0),
                     "seed must be a non-negative integer: 1.0",
                     id="float-seed"),
        pytest.param(("rk4", 10, 0, None, 3, 4, 0),
                     "error must be a real number: None", id="none-error"),
        pytest.param(("rk4", 10, 0, "0.1", 3, 4, 0),
                     "error must be a real number: '0.1'", id="string-error"),
    ])
    def test_bad_record_rejected(self, fields, message):
        # read_csv refuses each of these, so write_csv must never see one
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bench.ConvergenceRecord(*fields)

    def test_numpy_step_count_accepted(self):
        record = bench.ConvergenceRecord("rk4", np.int64(10), 0, 1e-3, 3, 4, 0)
        assert record.n == 10


class TestCsv:
    def test_single_record_layout(self, tmp_path):
        record = bench.ConvergenceRecord("euler", 10, 0, 0.125, 3, 4, 0)
        path = tmp_path / "one.csv"
        bench.write_csv([record], path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# rng={bench.RNG_NAME}"
        assert lines[1] == "method,n,trial,error,m,k,seed"
        assert lines[2] == "euler,10,0,1.2500000000000000e-01,3,4,0"
        assert len(lines) == 3

    def test_byte_stable(self, small_records, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        bench.write_csv(small_records, p1)
        bench.write_csv(bench.run_convergence(SMALL_CFG), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, small_records, tmp_path):
        path = tmp_path / "r.csv"
        bench.write_csv(small_records, path)
        # 17 significant digits give every float back exactly
        assert bench.read_csv(path) == small_records

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(method=st.sampled_from(transport.METHODS),
           n=st.integers(min_value=1), trial=st.integers(),
           error=st.floats(min_value=0.0) | st.just(math.nan),
           m=st.integers(), k=st.integers(), seed=st.integers(min_value=0))
    @example("rk4", 1, 0, 0.0, 3, 4, 0)
    @example("rk4", 1, 0, 5e-324, 3, 4, 0)
    @example("rk4", 1, 0, sys.float_info.max, 3, 4, 0)
    @example("rk4", 1, 0, math.inf, 3, 4, 0)
    @example("rk4", 1, 0, math.nan, 3, 4, 0)
    def test_every_valid_record_round_trips(self, tmp_path, method, n, trial,
                                            error, m, k, seed):
        record = bench.ConvergenceRecord(method, n, trial, error, m, k, seed)
        path = tmp_path / "r.csv"
        bench.write_csv([record], path)
        [back] = bench.read_csv(path)
        if math.isnan(error):
            # nan != nan: the other fields must match with back's own nan
            assert back.failed and math.isnan(back.error)
            record = dataclasses.replace(record, error=back.error)
        assert back == record

    def test_failed_record_round_trips_as_nan(self, tmp_path):
        record = bench.ConvergenceRecord("pole", 10, 0, math.nan, 3, 4, 0)
        path = tmp_path / "f.csv"
        bench.write_csv([record], path)
        back = bench.read_csv(path)
        assert back[0].failed and math.isnan(back[0].error)

    def test_record_is_its_csv_row(self):
        names = [f.name for f in dataclasses.fields(bench.ConvergenceRecord)]
        assert names == ["method", "n", "trial", "error", "m", "k", "seed"]

    @pytest.mark.parametrize("error, failed", [
        (0.125, False), (math.inf, True), (math.nan, True)])
    def test_failed_follows_the_error(self, tmp_path, error, failed):
        record = bench.ConvergenceRecord("rk4", 10, 0, error, 3, 4, 0)
        assert record.failed is failed
        path = tmp_path / "one.csv"
        bench.write_csv([record], path)
        [back] = bench.read_csv(path)
        assert back.failed is failed
        if math.isnan(error):
            assert math.isnan(back.error)
        else:
            assert back == record


class TestSvg:
    def test_structure_and_monotone_euler(self, small_records, tmp_path):
        path = tmp_path / "plot.svg"
        bench.write_svg_loglog(small_records, path)
        text = path.read_text()
        assert text.count("<polyline") == 3  # one per method in SMALL_CFG
        assert "steps n" in text and "error" in text
        for method in SMALL_CFG.methods:
            assert f">{method}</text>" in text
        # parse the euler polyline back: y must increase (error decreases)
        start = text.index(f'stroke="{bench._SVG_COLORS["euler"]}"')
        line = text[text.rindex("<polyline", 0, start):start]
        pts = line.split('points="')[1].split('"')[0].split()
        ys = [float(p.split(",")[1]) for p in pts]
        assert ys == sorted(ys)

    def test_byte_stable(self, small_records, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        bench.write_svg_loglog(small_records, p1)
        bench.write_svg_loglog(small_records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.write_svg_loglog([], tmp_path / "x.svg")
