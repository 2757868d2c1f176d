"""The suite's own pytest configuration: a failing property test fails
alone, and the tests after it still run and report.

Every warning is an error under the ini options, and the hypothesis plugin
touches a deprecated name while it reports a failure; unless that one
warning is let through, the report hook raises and pytest ends the whole
session with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(i):
    assert i < 0
"""

PASSING = """
def test_passes():
    assert True
"""


def test_failing_property_test_fails_alone(tmp_path):
    (tmp_path / "test_a_property.py").write_text(FAILING)
    (tmp_path / "test_b_plain.py").write_text(PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_a_property.py", "test_b_plain.py"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
