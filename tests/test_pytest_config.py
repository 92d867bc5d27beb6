"""The repository's pytest warning filters, run on throwaway test files.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error, with
one third-party message ignored so that a failing hypothesis test still
prints its falsifying example.  Each case runs pytest in a subprocess
against the repository's configuration, on a test file in a scratch
directory.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

_CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(value):
    assert value != value
"""

_DEPRECATED_CALL = """
import warnings


def test_warns():
    warnings.warn(DeprecationWarning("x"))
"""


def _run_pytest(directory: Path, source: str) -> subprocess.CompletedProcess:
    (directory / "test_probe.py").write_text(source, encoding="utf-8")
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(_CONFIG),
            "--rootdir", str(directory), "-p", "no:cacheprovider", "test_probe.py",
        ],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    process = _run_pytest(tmp_path, _FAILING_PROPERTY)
    assert process.returncode == 1, process.stdout + process.stderr
    assert "Falsifying example" in process.stdout
    assert "INTERNALERROR" not in process.stdout + process.stderr


def test_any_other_deprecation_warning_still_fails(tmp_path):
    process = _run_pytest(tmp_path, _DEPRECATED_CALL)
    assert process.returncode == 1, process.stdout + process.stderr
    assert "DeprecationWarning: x" in process.stdout
