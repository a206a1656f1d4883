"""The command-line and check modules load without ``dataclasses``, and the
command line loads neither ``restage.checks`` nor ``restage.analysis``.

Every command pays for generating each dataclass's methods before its first
step, so the package's records are NamedTuples; only ``verify`` and
``energy-curve`` import the two modules they alone use. Only module names
are checked here; import time is the benchmark's to measure.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_and_checks_import_without_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = (
        "import sys, restage.cli\n"
        "print(sorted({'restage.checks', 'restage.analysis'} & set(sys.modules)))\n"
        "import restage.checks\n"
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded_by_cli, dataclasses_loaded = out.stdout.splitlines()
    assert loaded_by_cli == "[]"  # the commands that use them import them
    assert dataclasses_loaded == "False"
