"""The configs a reader copies and the ones the benchmark runs all load: the
example in ``restage.config``'s docstring, the README's quick-start block and
every ``bench/workloads.py`` workload's generated input. The workloads module
is imported under its own name through ``_toys.bench_module``, so this file,
the sampler tests and the bench's own tests share one copy of it; it imports
only the standard library and numpy.

The docs' cross-references resolve too: every decision-log entry that the
code, the tests or the docs cite has a heading, and every test node id the
docs name exists. Those checks only read text and parse test files."""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

import pytest

from restage import config as config_module
from restage.config import load_config

from _toys import bench_module

_ROOT = Path(__file__).resolve().parent.parent
_DECISIONS = _ROOT / "docs" / "DECISIONS.md"
# a single entry, a range such as 14–16 or 14-16, or a list joined by commas and "and"
_NUMBERS = r"\d+(?:\s*[–-]\s*\d+)?"
_CITATION = re.compile(rf"\b[Ee]ntr(?:y|ies)\s+({_NUMBERS}(?:(?:\s*,\s*|\s+and\s+){_NUMBERS})*)")
_NODE_ID = re.compile(r"\btests/(\w+\.py)::(\w+)(?:::(\w+))?")

workloads = bench_module("workloads")


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_bench_workload_input_loads(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    config = load_config(workloads.generate(workload, 1, tmp_path / name).config)
    assert config.schedule.num_steps == workload.num_steps


def _cited_entries(text):
    for match in _CITATION.finditer(text):
        for part in re.split(r"\s*,\s*|\s+and\s+", match.group(1)):
            bounds = [int(n) for n in re.split(r"\s*[–-]\s*", part)]
            yield from range(bounds[0], bounds[-1] + 1)


def _node_exists(file, name, member):
    path = _ROOT / "tests" / file
    if not path.is_file():
        return False
    top = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
           if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    if member is None:
        return name in top
    return isinstance(top.get(name), ast.ClassDef) and any(
        isinstance(node, ast.FunctionDef) and node.name == member for node in top[name].body)


def test_the_docs_cross_references_resolve():
    decisions = _DECISIONS.read_text(encoding="utf-8")
    numbers = [int(n) for n in re.findall(r"^## (\d+)\. ", decisions, re.M)]
    # entries are cited by number, so none is renumbered or removed
    assert numbers == list(range(1, len(numbers) + 1)) and len(numbers) >= 21, numbers

    docs = [_ROOT / "README.md", _DECISIONS]
    citing = docs + sorted((_ROOT / "src").rglob("*.py")) + sorted((_ROOT / "tests").rglob("*.py"))
    dangling = [(path.relative_to(_ROOT).as_posix(), n) for path in citing
                for n in _cited_entries(path.read_text(encoding="utf-8")) if n not in numbers]
    assert dangling == []

    missing = [match.group(0) for path in docs for match in _NODE_ID.finditer(path.read_text(encoding="utf-8"))
               if not _node_exists(*match.groups())]
    assert missing == []
