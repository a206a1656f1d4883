"""The command-line and check modules load without ``dataclasses``.

Every command pays for generating each dataclass's methods before its first
step, so the package's records are NamedTuples. Only the module name is
checked here; import time is the benchmark's to measure.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_and_checks_import_without_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = "import sys, restage.cli, restage.checks; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
