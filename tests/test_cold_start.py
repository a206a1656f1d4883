"""The command-line and check modules load without ``dataclasses``, the
command line loads neither ``restage.checks`` nor ``restage.analysis``, and
``main`` freezes the collector's heap once per process.

Every command pays for generating each dataclass's methods before its first
step, so the package's records are NamedTuples; only ``verify`` and
``energy-curve`` import the two modules they alone use. Every command pays at
its exit for collecting what the imports built, unless that heap is frozen
(``docs/DECISIONS.md`` entry 22). Only module names and the freeze count are
checked here; start-up and exit time are the benchmark's to measure.
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


def test_main_freezes_the_heap_once_per_process(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(
        "[schedule]\nnum_steps = 50\n[ladder]\npreset = paper-2048\nresolutions = 16x16, 32x32\n",
        encoding="utf-8",
    )
    probe = (
        "import gc, sys\n"
        "from restage.cli import main\n"
        "for out in ('first', 'second'):\n"
        "    assert main(['ladder', '--config', sys.argv[1], '--out', out]) == 0\n"
        "    print(gc.get_freeze_count(), file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(config)], env=dict(os.environ, PYTHONPATH=str(_SRC)),
        cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    first, second = map(int, out.stderr.split())
    assert first > 0  # everything the imports built, frozen before the first command
    assert second == first  # the second call froze nothing more
