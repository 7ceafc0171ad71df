"""The repository's pytest settings let a failing hypothesis test report.

``filterwarnings`` turns every warning into an error.  The hypothesis plugin
meets a ``DeprecationWarning`` from ``mypy_extensions`` while it reports a
failure; made an error, that ends the session in an INTERNALERROR, so the
falsifying example is lost and no later test runs.  This runs a throwaway
session under the repository's own filters and checks that it reports.
"""

import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    filters = config["tool"]["pytest"]["ini_options"]["filterwarnings"]
    assert "error" in filters
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = out.stdout + out.stderr
    assert "INTERNALERROR" not in report
    assert "Falsifying example: test_fails(" in report
    assert "1 failed, 1 passed" in report
