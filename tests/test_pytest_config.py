"""The repository's pytest configuration reports a failing property test.

``filterwarnings = ["error"]`` turns every warning into an exception, and
hypothesis's report hook raises one of its own on some versions; the test
runs a failing ``@given`` test under that configuration in a subprocess.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
