"""Convergence benchmark: problem sampling, method sweep, slope
estimation, CSV persistence and a log-log SVG plot."""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import preshape, transport
from .errors import (
    InsufficientData,
    ReferenceInconsistent,
    SamplingFailed,
    ShapeSpaceError,
    io_failure,
)

RNG_NAME = "numpy-pcg64"
# Errors at or below this are considered at the floating-point floor and
# excluded from slope fits.
ERROR_FLOOR = 1e-13
# The RK4 references at n_ref and 2 * n_ref must differ by less than this.
REFERENCE_TOL = 1e-10

DEFAULT_STEPS = (10, 20, 50, 100, 200, 500, 1000)


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence sweep. Raises ValueError on a field out of range:
    m, k, n_ref, trials and the step counts must be integers (not bools),
    the seed a non-negative integer, and alpha one that the pole ladder
    takes at the largest step count (`transport.ladder_scale`). Any
    iterable of step counts or methods but a string (str, bytes or
    bytearray) is kept as a tuple, so a config hashes and can be run more
    than once."""

    m: int = 3
    k: int = 4
    step_counts: tuple = DEFAULT_STEPS
    methods: tuple = transport.METHODS
    n_ref: int = 1100
    alpha: float = 2.0
    seed: int = 0
    trials: int = 10

    def __post_init__(self):
        for field in (self.step_counts, self.methods):
            if isinstance(field, (str, bytes, bytearray)):
                raise ValueError("step counts and methods must not be a "
                                 f"string: {field!r}")
        try:
            steps, methods = tuple(self.step_counts), tuple(self.methods)
        except TypeError as err:
            raise ValueError("step counts and methods must be iterables: "
                             f"{err}") from None
        object.__setattr__(self, "step_counts", steps)
        object.__setattr__(self, "methods", methods)
        counts = (self.m, self.k, self.n_ref, self.trials, *steps)
        if not all(map(transport._is_count, counts)):
            raise ValueError("m, k, n_ref, trials and step counts must be "
                             f"integers: {counts!r}")
        transport._require_count(self.seed, 0,
                                 "seed must be a non-negative integer")
        # A centred configuration has rank <= k-1, and it must reach m-1.
        if self.m < 2 or self.k < max(3, self.m):
            raise ValueError("need m >= 2 and k >= max(3, m)")
        if not steps or list(steps) != sorted(set(steps)) or steps[0] < 1:
            raise ValueError("step counts must be strictly increasing positives")
        if self.n_ref < steps[-1]:
            raise ValueError("n_ref must be at least the largest step count")
        if not methods:
            raise ValueError("need at least one method")
        unknown = set(methods) - set(transport.METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if len(set(methods)) != len(methods):
            raise ValueError("methods must not repeat")
        transport.ladder_scale(steps[-1], self.alpha)
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One benchmark CSV row; `failed` (a nan or inf error) is derived. Raises
    ValueError on a method not in METHODS, n not a count >= 1, trial, m or
    k not a count, seed not a count >= 0, or error not a real number >= 0."""

    method: str
    n: int
    trial: int
    error: float
    m: int
    k: int
    seed: int

    def __post_init__(self):
        if self.method not in transport.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        transport._require_count(self.n, 1, "step count must be >= 1")
        counts = (self.trial, self.m, self.k)
        if not all(map(transport._is_count, counts)):
            raise ValueError(f"trial, m and k must be integers: {counts!r}")
        transport._require_count(self.seed, 0,
                                 "seed must be a non-negative integer")
        if not transport._is_real(self.error):
            raise ValueError(f"error must be a real number: {self.error!r}")
        if self.error < 0:
            raise ValueError(f"error must be >= 0: {self.error}")

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.error)


def sample_problem(m: int, k: int,
                   rng: np.random.Generator) -> transport.TransportProblem:
    """Draw a random full-rank pre-shape with two orthonormal horizontal
    tangent vectors. Deterministic for a fixed generator state."""
    for _ in range(100):
        try:
            x = preshape.project_to_preshape(rng.standard_normal((m, k)))
            # raises RankDeficient exactly when configuration_rank(x) < m-1
            w = preshape.horizontal_projection(
                x, preshape.to_tangent(x, rng.standard_normal((m, k))))
        except ShapeSpaceError:
            continue
        v = preshape.horizontal_projection(
            x, preshape.to_tangent(x, rng.standard_normal((m, k))))
        w_norm = np.linalg.norm(w)
        if w_norm < 1e-6:
            continue
        w = w / w_norm
        v = v - preshape.frobenius_inner(v, w) * w
        v_norm = np.linalg.norm(v)
        if v_norm < 1e-6:
            continue
        v = v / v_norm
        return transport.TransportProblem(x=x, w=w, v=v, n=1)
    raise SamplingFailed(f"no valid problem after 100 attempts (m={m}, k={k})")


def _reference(problem: transport.TransportProblem, n_ref: int) -> np.ndarray:
    """RK4 reference transport, cross-checked at twice the resolution."""
    ref, check = (transport.transport_integrated(replace(problem, n=n), "rk4")
                  .transported for n in (n_ref, 2 * n_ref))
    drift = float(np.linalg.norm(ref - check))
    if drift >= REFERENCE_TOL:
        raise ReferenceInconsistent(
            f"RK4 references at n={n_ref} and n={2 * n_ref} differ by "
            f"{drift:.3e}, not below the {REFERENCE_TOL:g} tolerance: "
            "n_ref is too coarse")
    return ref


def run_convergence(cfg: ExperimentConfig) -> list:
    """Run the full sweep: per trial, sample a problem, build the RK4
    reference and record every (method, n) error against it."""
    records = []
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for trial, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        problem = sample_problem(cfg.m, cfg.k, rng)
        ref = _reference(problem, cfg.n_ref)
        for method in cfg.methods:
            for n in cfg.step_counts:
                try:
                    result = transport.transport(
                        replace(problem, n=n), method, alpha=cfg.alpha)
                    error = float(np.linalg.norm(result.transported - ref))
                except ShapeSpaceError:
                    error = math.nan
                records.append(ConvergenceRecord(
                    method, n, trial, error, cfg.m, cfg.k, cfg.seed))
    records.sort(key=lambda r: (r.method, r.n, r.trial))
    return records


def _usable(records, method):
    return [r for r in records
            if r.method == method and not r.failed and r.error > ERROR_FLOOR]


def estimate_order(records, method: str):
    """Least-squares slope of log(error) vs log(n) for one method.

    Records at or below the floating-point floor are excluded; the rest
    must number >= 3 and span >= 2 step counts. Returns (slope, residual)
    where residual is the RMS of the fit residuals.
    """
    usable = _usable(records, method)
    if len(usable) < 3 or len({r.n for r in usable}) < 2:
        raise InsufficientData(f"need >= 3 records above the error floor, "
                               f"at >= 2 step counts, for {method!r}")
    log_n = np.log([r.n for r in usable])
    log_e = np.log([r.error for r in usable])
    coef = np.polyfit(log_n, log_e, 1)
    fit = np.polyval(coef, log_n)
    residual = float(np.sqrt(np.mean((log_e - fit) ** 2)))
    return float(coef[0]), residual


def median_trial_slope(records, method: str) -> float:
    """Median over trials of the per-trial log-log slopes."""
    trials = sorted({r.trial for r in records if r.method == method})
    slopes = []
    for t in trials:
        per_trial = [r for r in records if r.trial == t]
        try:
            slope, _ = estimate_order(per_trial, method)
        except InsufficientData:
            continue
        slopes.append(slope)
    if not slopes:
        raise InsufficientData(f"no per-trial slope available for {method!r}")
    return float(np.median(slopes))


def write_csv(records, path) -> None:
    """Persist records; header method,n,trial,error,m,k,seed, every error
    in one 17-digit scientific format (`nan` if failed), byte-stable, so a
    record of int fields reads back equal (a failed one as failed)."""
    if not records:
        raise ValueError("no records to write")
    lines = [f"# rng={RNG_NAME}", "method,n,trial,error,m,k,seed"]
    lines += [f"{r.method},{r.n},{r.trial},{r.error:.16e},{r.m},{r.k},{r.seed}"
              for r in records]
    with io_failure(path), open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path) -> list:
    """Parse a benchmark CSV written by write_csv, which has records; a row
    that does not parse, or that ConvergenceRecord refuses, raises IoFailure."""
    records = []
    with io_failure(path), open(path) as handle:
        for line in (ln.strip() for ln in handle):
            if not line or line.startswith("#") or line.startswith("method,"):
                continue
            method, n, trial, error, m, k, seed = line.split(",")
            records.append(ConvergenceRecord(
                method, int(n), int(trial), float(error), int(m), int(k),
                int(seed)))
        if not records:
            raise ValueError("no records")
    return records


_SVG_COLORS = dict(zip(
    transport.METHODS, ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728"), strict=True))


def _median_curve(records, method):
    by_n = {}
    for r in _usable(records, method):
        by_n.setdefault(r.n, []).append(r.error)
    return sorted((n, float(np.median(errs))) for n, errs in by_n.items())


def write_svg_loglog(records, path) -> None:
    """Log-log plot of the per-method median error curves.

    One polyline per method, decade grid lines, legend and axis labels.
    Hand-written SVG so the bytes are stable for fixed input. Records
    none of which is above ERROR_FLOOR raise InsufficientData.
    """
    if not records:
        raise ValueError("no records to plot")
    curves = {}
    for method in transport.METHODS:
        curve = _median_curve(records, method)
        if curve:
            curves[method] = curve
    if not curves:
        raise InsufficientData(
            f"no record above the error floor {ERROR_FLOOR:g} to plot")

    width, height = 720, 480
    left, right, top, bottom = 80, 150, 30, 60
    xs = [math.log10(n) for c in curves.values() for n, _ in c]
    ys = [math.log10(e) for c in curves.values() for _, e in c]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(lx):
        return left + (lx - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(ly):
        return height - bottom - (ly - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # decade grid and tick labels
    for exp10 in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(exp10)
        parts.append(f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" '
                     f'y2="{height - bottom}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - bottom + 18}" '
                     f'font-size="12" text-anchor="middle">1e{exp10}</text>')
    for exp10 in range(y_lo, y_hi + 1):
        y = py(exp10)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" '
                     f'y2="{y:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">1e{exp10}</text>')
    parts.append(f'<rect x="{left}" y="{top}" width="{width - left - right}" '
                 f'height="{height - top - bottom}" fill="none" stroke="black"/>')
    for method, curve in curves.items():
        pts = " ".join(f"{px(math.log10(n)):.2f},{py(math.log10(e)):.2f}"
                       for n, e in curve)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{_SVG_COLORS[method]}" stroke-width="2"/>')
    # legend
    ly = top + 10
    for method in curves:
        parts.append(f'<line x1="{width - right + 12}" y1="{ly}" '
                     f'x2="{width - right + 40}" y2="{ly}" '
                     f'stroke="{_SVG_COLORS[method]}" stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 46}" y="{ly + 4}" '
                     f'font-size="12">{method}</text>')
        ly += 20
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" '
                 f'y="{height - 14}" font-size="14" '
                 f'text-anchor="middle">steps n</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.2f}" '
                 f'font-size="14" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(top + height - bottom) / 2:.2f})">'
                 f'error</text>')
    parts.append("</svg>")
    with io_failure(path), open(path, "w", newline="\n") as handle:
        handle.write("\n".join(parts) + "\n")
