"""The configs a reader copies and the ones the benchmark runs all load: the
example in ``restage.config``'s docstring, the README's quick-start block and
every ``bench/workloads.py`` workload's generated input. The workloads module
is loaded by path, and registered so its dataclasses can resolve their
annotations; it imports only the standard library and numpy."""

from __future__ import annotations

import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

from restage import config as config_module
from restage.config import load_config

_ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", _ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = _load_workloads()


def _load_text(tmp_path, text):
    path = tmp_path / "example.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


def test_the_config_docstring_example_loads(tmp_path):
    example = re.search(r"sections:\n\n(.*?)\n\n(?=\S)", config_module.__doc__, re.S).group(1)
    config = _load_text(tmp_path, textwrap.dedent(example))
    assert config.schedule.num_steps == 50
    assert config.energy.variants == ("baseline", "rectified")


def test_the_readme_quick_start_loads(tmp_path):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    config = _load_text(tmp_path, block)
    assert (config.run.variant, config.run.run_count) == ("rectified", 4)


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_every_bench_workload_input_loads(tmp_path, name):
    workload = BENCH.WORKLOADS[name]
    config = load_config(BENCH.generate(workload, 1, tmp_path / name).config)
    assert config.schedule.num_steps == workload.num_steps
