"""Tests of the benchmark itself: span arithmetic, wrapper coverage, tracing
transparency and the correctness checks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402  (imports restage from the checkout)
import workloads  # noqa: E402
from tracer import WRAPS, layer_totals, self_times  # noqa: E402

SEED = 5


def test_self_time_subtracts_merged_children():
    spans = [
        ["root", 0, 100, -1, -1],
        ["a", 10, 40, 0, 0],
        ["a.child", 20, 30, 1, 0],
        ["b", 50, 70, 0, 0],
        ["b", 60, 80, 0, 0],  # overlaps its sibling: covered once
        ["late", 95, 120, 0, 0],  # runs past its parent: only 95..100 counts
    ]
    assert self_times(spans) == [100 - 30 - 30 - 5, 20, 10, 20, 20, 25]
    calls, self_ns = layer_totals(spans)
    assert calls == {"root": 1, "a": 1, "a.child": 1, "b": 2, "late": 1}
    assert self_ns["b"] == 40 and self_ns["root"] == 35


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """One untraced and one traced command per workload, one seed each."""
    out = {}
    for name, w in workloads.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        inputs = workloads.generate(replace(w, run_count=1), SEED, work / "inputs")
        client = run.Client(inputs, work, time.monotonic() + 120)
        plain = client.command(0, work / "plain", trace=False)
        traced = client.command(0, work / "traced", trace=True)
        assert plain["status"] == 0 and traced["status"] == 0, plain["stderr"] + traced["stderr"]
        out[name] = (inputs, work, plain, traced)
    return out


def test_every_wrapper_sees_calls_on_its_predicted_workload(commands):
    for location, attr, span_name, workload in WRAPS:
        calls = commands[workload][3]["calls"]
        assert calls.get(f"{location}.{attr}", 0) >= 1, (location, attr, workload)
        assert any(s[0] == span_name for s in commands[workload][3]["spans"])
    assert commands["energy-sweep"][3]["counters"]["cli.csv_bytes"] > 0


def test_tracing_leaves_outputs_byte_identical(commands):
    for name, (inputs, work, plain, traced) in commands.items():
        assert run.same_files(work / "plain", work / "traced"), name


def test_spans_nest_inside_their_parents(commands):
    spans = commands["posterior-staged"][3]["spans"]
    for name, start, end, parent, run_id in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    runs = [s for s in spans if s[0] == "sampler.run"]
    assert [s[4] for s in runs] == list(range(len(runs)))


def test_outputs_pass_the_checks(commands):
    for name, (inputs, work, plain, traced) in commands.items():
        seed = inputs.command_seed(0)
        assert checks.check_files(inputs, work / "plain", seed) == 0, name
        assert checks.check_reference(inputs, work / "plain", seed) == 0, name


def test_checks_catch_damaged_outputs(commands, tmp_path):
    inputs, work, _, _ = commands["posterior-staged"]
    seed = inputs.command_seed(0)
    damaged = tmp_path / "damaged"
    shutil.copytree(work / "plain", damaged)
    final = damaged / f"final_{seed}.rhrt"
    workloads.write_rhrt(final, workloads.read_rhrt(final) * np.float32(1 + 1e-5))
    assert checks.check_files(inputs, damaged, seed) == 0
    assert checks.check_reference(inputs, damaged, seed) == 1
    final.write_bytes(final.read_bytes()[:-4])
    assert checks.check_files(inputs, damaged, seed) == 1

    inputs, work, _, _ = commands["energy-sweep"]
    curves = tmp_path / "curves"
    shutil.copytree(work / "plain", curves)
    csv = curves / "energy_curves.csv"
    lines = csv.read_text().split("\n")
    label, step, value = lines[60].split(",")
    lines[60] = f"{label},{step},{float(value) * (1 + 1e-6):.9g}"
    csv.write_text("\n".join(lines))
    assert checks.check_reference(inputs, curves, inputs.command_seed(0)) == inputs.workload.run_count


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "posterior-staged", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
