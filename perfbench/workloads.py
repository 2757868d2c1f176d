"""The three benchmark workloads.

Each workload draws its inputs from the run seed, hands only arrays and
configs to the package, and checks what comes back. One "op" is:

- sweep-m3k4: one trial of the paper's convergence sweep (m=3, k=4, steps
  10..1000, n_ref=1100, all four methods, alpha=2) followed by
  `write_csv`, `write_svg_loglog`, `read_csv` and `estimate_order` for
  every method. Each op uses a fresh sweep seed.
- queries-pole: one `bench transport`-style query on a fresh m=3, k=12
  configuration: project and validate the start, take the quotient log
  towards a fresh target, make a raw vector horizontal and transport it
  with a 50-rung pole ladder.
- fanout-rk4: one geodesic between fresh m=3, k=12 configurations and 64
  horizontal vectors transported along it with RK4 at n=100.

Every workload also has a fixed check op whose inputs do not depend on the
run seed; its outputs are compared with values stored in `expected/` and
give the workload's isometry drift.
"""

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED_DIR = HERE / "expected"

# Seed of the fixed check inputs; the stored expected outputs belong to it.
CHECK_SEED = 20210308
# Stream numbers under one seed: the timed ops, the warm-up op.
TIMED, WARMUP = 0, 1

# Acceptance bands of the convergence slopes (tests/test_acceptance.py).
SLOPE_BANDS = {
    "euler": (-1.2, -0.8),
    "rk2": (-2.3, -1.7),
    "rk4": (-4.5, -3.5),
    "pole": (-2.3, -1.7),
}

# Records: relative tolerance for the errors, plus an absolute one at the
# rounding floor, where reordered arithmetic may change the last bits.
RECORD_RTOL, RECORD_ATOL = 1e-6, 1e-12
# Transported vectors: tolerance relative to max(1, |v|).
VECTOR_RTOL = 1e-9
# Horizontality certificate |gamma v^T - v gamma^T| relative to max(1, |v|).
HORIZONTAL_TOL = 1e-9


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _vector_problems(out, expected, label):
    """Compare transported vectors with stored ones; list the mismatches."""
    got = np.asarray(out, dtype=float)
    want = np.asarray(expected, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != stored {want.shape}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        gap = float(np.linalg.norm(g - w))
        if not gap <= VECTOR_RTOL * max(1.0, float(np.linalg.norm(w))):
            problems.append(f"{label}[{i}]: differs from stored by {gap:.3e}")
    return problems


def _record_problems(got, want):
    """Compare (method, n, trial, error) records with stored ones."""
    if [r[:3] for r in got] != [r[:3] for r in want]:
        return ["check records differ in layout from stored ones"]
    problems = []
    for (method, n, trial, err), (*_, ref) in zip(got, want):
        if not abs(err - ref) <= RECORD_RTOL * abs(ref) + RECORD_ATOL:
            problems.append(f"{method} n={n} trial={trial}: error "
                            f"{err:.17e} != stored {ref:.17e}")
    return problems


def _finite_horizontal(endpoint, vectors, label):
    problems = []
    for i, v in enumerate(vectors):
        if not np.all(np.isfinite(v)):
            problems.append(f"{label}[{i}]: non-finite output")
            continue
        cert = float(np.linalg.norm(endpoint @ v.T - v @ endpoint.T))
        if not cert <= HORIZONTAL_TOL * max(1.0, float(np.linalg.norm(v))):
            problems.append(f"{label}[{i}]: not horizontal ({cert:.3e})")
    return problems


def _drift(v_in, v_out):
    return abs(float(np.linalg.norm(v_out)) - float(np.linalg.norm(v_in)))


class SweepM3K4:
    name = "sweep-m3k4"
    steps = (10, 20, 50, 100, 200, 500, 1000)
    methods = ("euler", "rk2", "rk4", "pole")
    trials = 1
    csv = OUT_DIR / "sweep-m3k4.csv"
    svg = OUT_DIR / "sweep-m3k4.svg"

    def inputs(self, seed, stream=TIMED):
        """A fresh sweep seed per op."""
        rng = _rng(seed, stream)
        while True:
            yield int(rng.integers(2**31))

    def op(self, pkg, sweep_seed):
        bench = pkg.bench
        records = bench.run_convergence(bench.ExperimentConfig(
            m=3, k=4, step_counts=self.steps, methods=self.methods,
            n_ref=1100, alpha=2.0, seed=sweep_seed, trials=self.trials))
        bench.write_csv(records, self.csv)
        bench.write_svg_loglog(records, self.svg)
        back = bench.read_csv(self.csv)
        slopes = {m: bench.estimate_order(back, m)[0] for m in self.methods}
        return records, back, slopes

    def check(self, out):
        records, back, _ = out
        problems = []
        expected_count = len(self.steps) * len(self.methods) * self.trials
        if len(records) != expected_count:
            problems.append(f"{len(records)} records, expected {expected_count}")
        bad = [r for r in records if r.failed or not math.isfinite(r.error)]
        if bad:
            problems.append(f"{len(bad)} failed or non-finite records")
        if back != records:
            problems.append("CSV does not read back the written records")
        return problems

    def keep(self, out):
        return out[2]

    def check_run(self, kept):
        """Median over ops of the per-op slopes lies in each acceptance band,
        Euler included. A single trial's slope scatters (about 5 % of RK4
        trials fall below -4.5), so the band applies to the median, as in
        acceptance criterion 1."""
        problems = []
        for method, (lo, hi) in SLOPE_BANDS.items():
            slope = float(np.median([slopes[method] for slopes in kept]))
            if not lo <= slope <= hi:
                problems.append(f"{method} median slope {slope:+.3f} "
                                f"outside [{lo}, {hi}]")
        return problems

    def verify(self, pkg, expected):
        """Run the check op; return its problems, the isometry drift and the
        outputs to store. With `expected` None nothing is compared."""
        sweep_seed = next(self.inputs(CHECK_SEED))
        out = self.op(pkg, sweep_seed)
        problems = self.check(out)
        got = [[r.method, r.n, r.trial, r.error] for r in out[0]]
        if expected is not None:
            problems += _record_problems(got, expected["records"])
        again = self.csv.with_suffix(".again.csv")
        pkg.bench.write_csv(out[0], again)
        if again.read_bytes() != self.csv.read_bytes():
            problems.append("two writes of the same records differ in bytes")
        return problems, self.drift(pkg, sweep_seed), {"records": got}

    def drift(self, pkg, sweep_seed):
        """Largest isometry drift over every method and step count of the
        sweep, on one fixed problem. Computed through the public transport
        call, so it does not depend on how run_convergence is built."""
        transport = pkg.transport
        p = pkg.bench.sample_problem(3, 4, np.random.default_rng(sweep_seed))
        return max(_drift(p.v, transport.transport(
            transport.TransportProblem(p.x, p.w, p.v, n), method,
            alpha=2.0).transported)
            for method in self.methods for n in self.steps)


class _VectorWorkload:
    """Workloads whose op returns (vectors in, endpoint, vectors out)."""

    check_ops = 1

    def check(self, out):
        _, endpoint, transported = out
        return _finite_horizontal(endpoint, transported, self.name)

    def keep(self, out):
        return None

    def check_run(self, kept):
        return []

    def verify(self, pkg, expected):
        """Run the check ops; return their problems, the largest isometry
        drift among their vectors, and the outputs to store. With
        `expected` None nothing is compared."""
        inputs = self.inputs(CHECK_SEED)
        problems, v_in, v_out = [], [], []
        for _ in range(self.check_ops):
            out = self.op(pkg, next(inputs))
            problems += self.check(out)
            v_in += out[0]
            v_out += out[2]
        if expected is not None:
            problems += _vector_problems(v_out, expected["transported"],
                                         self.name)
        drift = max(_drift(a, b) for a, b in zip(v_in, v_out))
        return problems, drift, {"transported": [t.tolist() for t in v_out]}


class QueriesPole(_VectorWorkload):
    name = "queries-pole"
    m, k, n = 3, 12, 50
    check_ops = 32

    def inputs(self, seed, stream=TIMED):
        """Raw start, raw target and raw vector per op."""
        rng = _rng(seed, stream)
        while True:
            yield rng.standard_normal((3, self.m, self.k))

    def op(self, pkg, raw):
        preshape, quotient, transport = pkg.preshape, pkg.quotient, pkg.transport
        x = quotient.check_representative(preshape.project_to_preshape(raw[0]))
        y = preshape.project_to_preshape(raw[1])
        w = quotient.quotient_log(x, y)
        v = preshape.horizontal_projection(x, preshape.to_tangent(x, raw[2]))
        result = transport.transport(
            transport.TransportProblem(x=x, w=w, v=v, n=self.n), "pole")
        return [v], result.endpoint, [result.transported]


class FanoutRK4(_VectorWorkload):
    name = "fanout-rk4"
    m, k, n, vectors = 3, 12, 100, 64

    def inputs(self, seed, stream=TIMED):
        """Raw start, raw target and 64 raw vectors per op."""
        rng = _rng(seed, stream)
        while True:
            yield rng.standard_normal((2 + self.vectors, self.m, self.k))

    def op(self, pkg, raw):
        preshape, quotient, transport = pkg.preshape, pkg.quotient, pkg.transport
        x = preshape.project_to_preshape(raw[0])
        w = quotient.quotient_log(x, preshape.project_to_preshape(raw[1]))
        vs = [preshape.horizontal_projection(x, preshape.to_tangent(x, r))
              for r in raw[2:]]
        results = [transport.transport(
            transport.TransportProblem(x=x, w=w, v=v, n=self.n), "rk4")
            for v in vs]
        return vs, results[0].endpoint, [r.transported for r in results]


WORKLOADS = {w.name: w for w in (SweepM3K4(), QueriesPole(), FanoutRK4())}


def expected_path(name):
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name):
    with open(expected_path(name)) as handle:
        return json.load(handle)
