"""The benchmark's output contract, traced and untraced: exit 0 and a last
stdout line that is one strict-JSON result, correct, with finite metrics.

A traced run that exits 0 but ends on another line gives the benchmark
no result, so it is checked here, through the command the benchmark runs.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def reject(constant):
    # json.dumps writes NaN, Infinity and -Infinity, which are not JSON
    raise ValueError(f"non-finite value in the result: {constant}")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_a_finite_result(trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "queries-pole", "--seed",
         "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True, done.stderr
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
