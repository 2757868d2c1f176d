"""The suite's own pytest configuration: a failing property test fails
alone, and the tests after it still run and report; a mistyped key stops
the run.

Every warning is an error under the ini options, and the hypothesis plugin
touches a deprecated name while it reports a failure; unless that one
warning is let through, the report hook raises and pytest ends the whole
session with INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

import pytest

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


def test_mistyped_config_key_stops_the_run(tmp_path):
    # a misspelt filterwarnings would otherwise switch every error filter off
    (tmp_path / "pyproject.toml").write_text(
        CONFIG.read_text().replace("filterwarnings =", "filterwarning ="))
    (tmp_path / "test_b_plain.py").write_text(PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "test_b_plain.py"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    output = done.stdout + done.stderr
    assert done.returncode == pytest.ExitCode.USAGE_ERROR, output
    assert "Unknown config option: filterwarning" in output, output
