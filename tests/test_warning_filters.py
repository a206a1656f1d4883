"""A failing Hypothesis test reports like any other under the repo's pytest settings.

``pyproject.toml`` turns warnings into errors. Hypothesis's failure report
imports ``libcst``, which warns that ``mypy_extensions.TypedDict`` is
deprecated; unfiltered, that warning aborts the whole session with an
INTERNALERROR, and every later test goes unrun and unreported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    (tmp_path / "test_probe.py").write_text(_PROBE)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
