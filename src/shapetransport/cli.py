"""Command-line interface: `bench run`, `bench order` and `bench transport`,
whose landmark files are read here and written with 17 significant digits.

Exit codes, all mapped in `_Bench.invoke`: 0 on success; 2 on a bad
argument (ValueError) or an unreadable, unwritable, malformed or
non-finite file (IoFailure); 3 on any other ShapeSpaceError or a numpy
LinAlgError, i.e. a numerical failure.
"""

import sys
import warnings

import click
import numpy as np

from . import bench, preshape, quotient, transport
from .errors import IoFailure, ShapeSpaceError, io_failure


def _parse_int_list(_ctx, _param, value):
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        raise click.BadParameter(f"not a comma-separated integer list: {value!r}")


def _parse_methods(_ctx, _param, value):
    return tuple(part.strip() for part in value.split(","))


def _echo_slopes(records, methods):
    """Print each method's fitted convergence slope, one line per method."""
    for method in methods:
        slope, residual = bench.estimate_order(records, method)
        click.echo(f"{method}: slope {slope:+.3f} (fit rms {residual:.3f})")


class _Bench(click.Group):
    """The one place where library failures become exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except np.linalg.LinAlgError as err:  # a ValueError, but numerical
            failure = err
        except (ValueError, IoFailure) as err:
            raise click.UsageError(str(err)) from err
        except ShapeSpaceError as err:
            failure = err
        click.echo(f"numerical failure: {failure}", err=True)
        sys.exit(3)


@click.group(cls=_Bench)
def main():
    """Parallel-transport benchmark on Kendall shape spaces."""


_DEFAULTS = bench.ExperimentConfig()


@main.command()
@click.option("--m", "m", type=int, default=_DEFAULTS.m, show_default=True)
@click.option("--k", "k", type=int, default=_DEFAULTS.k, show_default=True)
@click.option("--steps", "step_counts", callback=_parse_int_list,
              show_default=True,
              default=",".join(map(str, _DEFAULTS.step_counts)))
@click.option("--ref-steps", "n_ref", type=int, default=_DEFAULTS.n_ref,
              show_default=True,
              help="Steps of the RK4 reference. The references at n_ref and "
              f"2*n_ref must agree within {bench.REFERENCE_TOL:g}, or the run "
              "fails with exit code 3.")
@click.option("--methods", callback=_parse_methods,
              default=",".join(_DEFAULTS.methods), show_default=True)
@click.option("--alpha", type=float, default=_DEFAULTS.alpha, show_default=True)
@click.option("--trials", type=int, default=_DEFAULTS.trials, show_default=True)
@click.option("--seed", type=int, default=_DEFAULTS.seed, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None)
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None)
def run(csv_path, svg_path, **fields):
    """Run the convergence sweep and write CSV/SVG outputs."""
    cfg = bench.ExperimentConfig(**fields)
    records = bench.run_convergence(cfg)
    if csv_path:
        bench.write_csv(records, csv_path)
    if svg_path:
        bench.write_svg_loglog(records, svg_path)
    _echo_slopes(records, cfg.methods)


@main.command()
@click.option("--csv", "csv_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
def order(csv_path):
    """Print per-method convergence slopes from a benchmark CSV."""
    records = bench.read_csv(csv_path)
    _echo_slopes(records, sorted({r.method for r in records},
                                 key=transport.METHODS.index))


def read_landmarks(path) -> np.ndarray:
    """The m-by-k matrix of a landmark file; refuses no rows or non-finite ones."""
    with io_failure(path), warnings.catch_warnings():
        # loadtxt warns on a file without rows; that is the ValueError below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        if not rows.size:
            raise ValueError("no landmarks")
        if not np.isfinite(rows).all():
            raise ValueError("non-finite value")
    return rows.T


@main.command(name="transport")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Start landmarks (CSV, one row per landmark).")
@click.option("--target", "target_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Landmarks defining the geodesic endpoint.")
@click.option("--vector", "vector_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Raw vector to transport (same CSV layout).")
@click.option("--method", type=click.Choice(transport.METHODS),
              default="rk4", show_default=True)
@click.option("--steps", "n", type=int, default=100, show_default=True)
@click.option("--alpha", type=float, default=2.0, show_default=True)
@click.option("--output", "output_path", type=click.Path(dir_okay=False),
              default=None, help="Write the transported vector as CSV.")
def transport_cmd(input_path, target_path, vector_path, method, n, alpha,
                  output_path):
    """Transport a vector along the geodesic between two configurations."""
    x_raw = read_landmarks(input_path)
    y_raw = read_landmarks(target_path)
    vec_raw = read_landmarks(vector_path)
    if x_raw.shape != y_raw.shape or x_raw.shape != vec_raw.shape:
        raise ValueError(
            f"shape mismatch: {x_raw.shape} vs {y_raw.shape} vs {vec_raw.shape}")
    x = quotient.check_representative(preshape.project_to_preshape(x_raw))
    y = preshape.project_to_preshape(y_raw)
    w = quotient.quotient_log(x, y)
    v = preshape.horizontal_projection(x, preshape.to_tangent(x, vec_raw))
    problem = transport.TransportProblem(x=x, w=w, v=v, n=n)
    result = transport.transport(problem, method, alpha=alpha)
    rows = [",".join(f"{value:.16e}" for value in row)
            for row in result.transported.T]
    text = "\n".join(rows) + "\n"
    if output_path:
        with io_failure(output_path), open(output_path, "w", newline="\n") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)
    norm = float(np.linalg.norm(result.transported))
    click.echo(f"# method={method} steps={n} |v|={norm:.12e}", err=True)


if __name__ == "__main__":
    main()
