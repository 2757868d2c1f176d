import numpy as np
import pytest
from click.testing import CliRunner

from shapetransport import bench, preshape, quotient, transport
from shapetransport.cli import main, read_landmarks, run

from conftest import random_horizontal, random_preshape

RUN_ARGS = ["run", "--m", "3", "--k", "4", "--steps", "10,20,50",
            "--ref-steps", "200", "--methods", "euler,rk4",
            "--trials", "2", "--seed", "0"]


@pytest.fixture
def runner():
    return CliRunner()


class TestRun:
    def test_writes_outputs_and_slopes(self, runner, tmp_path):
        csv = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        result = runner.invoke(main, RUN_ARGS + ["--csv", str(csv),
                                                 "--svg", str(svg)])
        assert result.exit_code == 0, result.output
        assert csv.exists() and svg.exists()
        assert "euler: slope" in result.output
        assert "rk4: slope" in result.output

    def test_deterministic_csv(self, runner, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            result = runner.invoke(main, RUN_ARGS + ["--csv", str(path)])
            assert result.exit_code == 0, result.output
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("bad", [
        ["run", "--k", "2"],
        ["run", "--steps", "50,10"],
        ["run", "--steps", "abc"],
        ["run", "--methods", "euler,rk9"],
        ["run", "--steps", "10,20", "--ref-steps", "15"],
        ["run", "--alpha", "0.5"],
        ["run", "--m", "4", "--k", "3"],
        ["run", "--alpha", "nan"],
        ["run", "--alpha", "inf"],
        ["run", "--alpha", "400"],
        ["run", "--seed", "-1"],
    ])
    def test_validation_failures_exit_2(self, runner, bad):
        result = runner.invoke(main, bad)
        assert result.exit_code == 2

    def test_coarse_reference_exits_3(self, runner):
        # the RK4 references at n = 100 and 200 differ by about 2e-10
        result = runner.invoke(main, ["run", "--trials", "1", "--steps",
                                      "10,20,50", "--ref-steps", "100"])
        assert result.exit_code == 3, result.output
        failures = [line for line in result.output.splitlines()
                    if line.startswith("numerical failure:")]
        assert len(failures) == 1
        assert "n_ref is too coarse" in failures[0]
        assert "Traceback" not in result.output
        # the message and the --ref-steps help read the one tolerance
        tol = f"{bench.REFERENCE_TOL:g}"
        assert tol in failures[0]
        assert tol in runner.invoke(main, ["run", "--help"]).output

    def test_nothing_above_the_floor_to_plot_exits_3(self, runner, tmp_path):
        # RK4 at n = n_ref is the reference itself: every error is 0
        svg = tmp_path / "out.svg"
        result = runner.invoke(main, [
            "run", "--trials", "1", "--methods", "rk4", "--steps", "1100",
            "--ref-steps", "1100", "--svg", str(svg)])
        assert result.exit_code == 3, result.output
        failures = [line for line in result.output.splitlines()
                    if line.startswith("numerical failure:")]
        assert len(failures) == 1
        assert "Traceback" not in result.output
        assert not svg.exists()

    def test_defaults_are_the_config_defaults(self):
        params = run.make_context("run", []).params
        cfg = bench.ExperimentConfig()
        fields = {"steps": "step_counts"}
        for name, value in params.items():
            if name not in ("csv_path", "svg_path"):
                assert value == getattr(cfg, fields.get(name, name)), name


class TestOrder:
    def test_prints_slopes_from_csv(self, runner, tmp_path):
        csv = tmp_path / "out.csv"
        result = runner.invoke(main, RUN_ARGS + ["--csv", str(csv)])
        assert result.exit_code == 0
        result = runner.invoke(main, ["order", "--csv", str(csv)])
        assert result.exit_code == 0, result.output
        assert "euler: slope -" in result.output

    def test_missing_csv_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["order", "--csv",
                                      str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", [
        pytest.param("method,n,trial,error,m,k,seed\nrk4,10,0\n",
                     id="short-row"),
        pytest.param("# rng=numpy-pcg64\nmethod,n,trial,error,m,k,seed\n",
                     id="header-only"),
        # a step count below 1 reached the fit: log(0) and LAPACK errors
        pytest.param("method,n,trial,error,m,k,seed\nrk4,0,0,1e-3,3,4,0\n"
                     "rk4,10,0,1e-4,3,4,0\nrk4,20,0,1e-5,3,4,0\n",
                     id="zero-steps"),
        pytest.param("method,n,trial,error,m,k,seed\nrk4,-10,0,1e-3,3,4,0\n"
                     "rk4,10,0,1e-4,3,4,0\nrk4,20,0,1e-5,3,4,0\n",
                     id="negative-steps"),
        # an error is a norm; the fit would drop a negative one silently
        pytest.param("method,n,trial,error,m,k,seed\nrk4,10,0,-1e-3,3,4,0\n"
                     "rk4,20,0,1e-4,3,4,0\nrk4,40,0,1e-5,3,4,0\n"
                     "rk4,80,0,1e-6,3,4,0\n",
                     id="negative-error"),
    ])
    def test_malformed_csv_exits_2(self, runner, tmp_path, capfd, text):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        result = runner.invoke(main, ["order", "--csv", str(csv)])
        assert result.exit_code == 2
        assert "Error: " in result.output and str(csv) in result.output
        assert "DLASCL" not in capfd.readouterr().err

    def test_unknown_method_exits_2(self, runner, tmp_path):
        csv = tmp_path / "rk9.csv"
        csv.write_text("method,n,trial,error,m,k,seed\nrk9,10,0,1e-3,3,4,0\n")
        result = runner.invoke(main, ["order", "--csv", str(csv)])
        assert result.exit_code == 2
        assert "Error: " in result.output and str(csv) in result.output
        assert "rk9" in result.output

    def test_too_few_records_exits_3(self, runner, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text("method,n,trial,error,m,k,seed\n"
                       "rk4,10,0,1e-3,3,4,0\nrk4,20,0,1e-4,3,4,0\n")
        result = runner.invoke(main, ["order", "--csv", str(csv)])
        assert result.exit_code == 3
        assert "numerical failure" in result.output
        # three records, but all at one step count
        csv.write_text("method,n,trial,error,m,k,seed\nrk4,10,0,1e-3,3,4,0\n"
                       "rk4,10,1,2e-3,3,4,0\nrk4,10,2,3e-3,3,4,0\n")
        result = runner.invoke(main, ["order", "--csv", str(csv)])
        assert result.exit_code == 3
        assert "numerical failure" in result.output


class TestTransportCommand:
    def write_inputs(self, tmp_path, rng):
        x = random_preshape(rng, 3, 4)
        w = 0.5 * random_horizontal(rng, x)
        y = preshape.exp(x, w)
        vec = rng.standard_normal((3, 4))
        paths = {}
        for name, mat in (("input", x), ("target", y), ("vector", vec)):
            path = tmp_path / f"{name}.csv"
            np.savetxt(path, mat.T, delimiter=",")
            paths[name] = str(path)
        return x, w, vec, paths

    def test_matches_library_result(self, runner, tmp_path, rng,
                                    monkeypatch):
        x, w, vec, paths = self.write_inputs(tmp_path, rng)
        out = tmp_path / "transported.csv"
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", paths["vector"],
            "--method", "rk4", "--steps", "50", "--output", str(out)])
        assert result.exit_code == 0, result.output
        got = read_landmarks(out)

        x_loaded = preshape.project_to_preshape(read_landmarks(paths["input"]))
        y_loaded = preshape.project_to_preshape(read_landmarks(paths["target"]))
        w_cli = quotient.quotient_log(x_loaded, y_loaded)
        v = preshape.horizontal_projection(
            x_loaded, preshape.to_tangent(x_loaded, read_landmarks(paths["vector"])))
        # a repeat would apply the span operator, which rounds differently
        monkeypatch.setattr(transport, "_last", None)
        expected = transport.transport_integrated(
            transport.TransportProblem(x_loaded, w_cli, v, 50), "rk4").transported
        # the output's 17 significant digits read back bit for bit
        assert np.array_equal(got, expected)

    def test_prints_the_output_csv_without_output(self, runner, tmp_path,
                                                   rng, monkeypatch):
        _, _, _, paths = self.write_inputs(tmp_path, rng)
        args = ["transport", "--input", paths["input"], "--target",
                paths["target"], "--vector", paths["vector"]]
        out = tmp_path / "transported.csv"
        written = runner.invoke(main, args + ["--output", str(out)])
        # a repeat would apply the span operator, which rounds differently
        monkeypatch.setattr(transport, "_last", None)
        printed = runner.invoke(main, args)
        assert written.exit_code == printed.exit_code == 0, printed.output
        assert written.stdout == ""
        assert printed.stdout == out.read_text()
        assert printed.stderr == written.stderr

    def test_many_rung_ladder_keeps_the_vector(self, runner, tmp_path, rng):
        # 4000 rungs at alpha = 2: the last log spans |v| / 4000^2 = 6e-8
        x, w, _, paths = self.write_inputs(tmp_path, rng)
        v = random_horizontal(rng, x)
        np.savetxt(paths["vector"], v.T, delimiter=",")
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", paths["vector"], "--method", "pole",
            "--steps", "4000"])
        assert result.exit_code == 0, result.output
        assert abs(float(result.stderr.split("|v|=")[1]) - 1.0) < 1e-6
        expected = transport.transport_integrated(
            transport.TransportProblem(x, w, v, 1100), "rk4").transported
        got = np.loadtxt(result.stdout.splitlines(), delimiter=",").T
        assert np.abs(got - expected).max() < 1e-6

    def test_shape_mismatch_exits_2(self, runner, tmp_path, rng):
        _, _, _, paths = self.write_inputs(tmp_path, rng)
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, rng.standard_normal((5, 2)), delimiter=",")
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("empty", [
        pytest.param(("input",), id="input-only"),
        pytest.param(("input", "target", "vector"), id="all-three")])
    def test_empty_landmark_file_exits_2(self, runner, tmp_path, rng, capfd,
                                         empty):
        _, _, _, paths = self.write_inputs(tmp_path, rng)
        for name in empty:
            open(paths[name], "w").close()
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", paths["vector"]])
        assert result.exit_code == 2, result.output
        assert f"Error: {paths['input']}: no landmarks" in result.stderr
        assert "Warning" not in result.output + capfd.readouterr().err

    def test_singular_input_exits_3(self, runner, tmp_path, rng):
        _, _, _, paths = self.write_inputs(tmp_path, rng)
        # collinear landmarks in R^3: rank 1, on the singular stratum
        collinear = np.zeros((3, 4))
        collinear[0] = np.array([-1.5, -0.5, 0.5, 1.5])
        bad = tmp_path / "line.csv"
        np.savetxt(bad, collinear.T, delimiter=",")
        result = runner.invoke(main, [
            "transport", "--input", str(bad), "--target", paths["target"],
            "--vector", paths["vector"]])
        assert result.exit_code == 3

    def test_linalg_error_exits_3(self, runner, tmp_path, rng, monkeypatch):
        # np.linalg.LinAlgError is a ValueError, yet it is a numerical failure
        _, _, _, paths = self.write_inputs(tmp_path, rng)

        def fail(*_args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(preshape, "optimal_rotation", fail)
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", paths["vector"]])
        assert result.exit_code == 3, result.output
        assert result.output == "numerical failure: SVD did not converge\n"

    @pytest.mark.parametrize("case", [
        "nan-input", "nan-vector", "non-numeric", "unwritable-output",
        "zero-steps", "one-column", "pole-alpha-inf", "pole-alpha-overflow"])
    def test_bad_input_exits_2(self, runner, tmp_path, rng, case):
        _, _, _, paths = self.write_inputs(tmp_path, rng)
        extra = []
        if case in ("nan-input", "nan-vector"):
            path = paths[case.split("-")[1]]
            rows = np.loadtxt(path, delimiter=",")
            rows[1, 2] = np.nan
            np.savetxt(path, rows, delimiter=",")
        elif case == "non-numeric":
            with open(paths["vector"], "w") as handle:
                handle.write("1,2,3\n4,five,6\n7,8,9\n1,0,0\n")
        elif case == "unwritable-output":
            extra = ["--output", str(tmp_path / "no-dir" / "out.csv")]
        elif case == "one-column":
            # landmarks on a line (m=1): there is no rotation group to factor
            for path in paths.values():
                np.savetxt(path, rng.standard_normal((3, 1)), delimiter=",")
        elif case == "pole-alpha-inf":
            extra = ["--method", "pole", "--alpha", "inf"]
        elif case == "pole-alpha-overflow":
            # 100^200 is beyond the float range
            extra = ["--method", "pole", "--alpha", "200", "--steps", "100"]
        else:
            extra = ["--steps", "0"]
        result = runner.invoke(main, [
            "transport", "--input", paths["input"], "--target",
            paths["target"], "--vector", paths["vector"]] + extra)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert len(result.output.strip().splitlines()) == 1


class TestLandmarkIo:
    def test_round_trip(self, rng, tmp_path):
        x = rng.standard_normal((3, 5))
        path = tmp_path / "landmarks.csv"
        np.savetxt(path, x.T, delimiter=",")
        assert np.array_equal(read_landmarks(path), x)
