"""``tools/compare_outputs.py`` measures how two output directories differ.

The script is loaded by path; these tests call its file comparison on
hand-written directories and run no workload. It reads the bench's modules
under their own names, so it sees the very modules the bench runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from restage.tensorfile import read_tensor, write_tensor

from _toys import bench_module

_SPEC = importlib.util.spec_from_file_location(
    "_compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
TOOL = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(TOOL)

TRACE = "step,value,flag\n0,2.0,true\n1,-4.0,false\n"


def _dirs(tmp_path, got_trace, got_tensor):
    ref, got = tmp_path / "ref", tmp_path / "got"
    for d, trace, tensor in ((ref, TRACE, [1.0, -2.0]), (got, got_trace, got_tensor)):
        d.mkdir()
        (d / "trace.csv").write_text(trace, encoding="utf-8")
        write_tensor(d / "final.rhrt", np.array(tensor))
    return ref, got


def test_identical_files_are_counted(tmp_path):
    assert TOOL.compare(*_dirs(tmp_path, TRACE, [1.0, -2.0]), read_tensor) == (2, {})


def test_changes_are_relative_to_the_largest_reference_value(tmp_path):
    ref, got = _dirs(tmp_path, TRACE.replace("-4.0", "-4.5"), [1.0, -2.5])
    assert TOOL.compare(ref, got, read_tensor) == (0, {"trace.csv": 0.125, "final.rhrt": 0.25})


@pytest.mark.parametrize(
    "trace",
    [TRACE.replace("flag", "flags"), TRACE.replace("false", "true"), "step,value,flag\n0,2.0,true\n"],
)
def test_a_changed_header_text_cell_or_layout_is_infinite(tmp_path, trace):
    _, changes = TOOL.compare(*_dirs(tmp_path, trace, [1.0, -2.0]), read_tensor)
    assert changes == {"trace.csv": float("inf")}


def test_different_file_names_are_refused(tmp_path):
    ref, got = _dirs(tmp_path, TRACE, [1.0, -2.0])
    (got / "final.rhrt").rename(got / "other.rhrt")
    with pytest.raises(RuntimeError, match="different files"):
        TOOL.compare(ref, got, read_tensor)


def test_the_bench_modules_are_the_ones_the_tests_import():
    assert TOOL._bench_module("workloads") is bench_module("workloads")
    assert TOOL._bench_module("run") is bench_module("run")


@pytest.mark.parametrize(
    "stderr, mb",
    [
        ("VmHWM:\t   38912 kB\n", 38.0),
        ("progress\nVmHWM:   100 kB\nVmHWM:   40960 kB\n", 40.0),  # the last line counts
        ("VmRSS:   38912 kB\n", None),
        ("", None),
    ],
)
def test_the_peak_resident_size_is_read_from_the_vmhwm_line(stderr, mb):
    assert TOOL.peak_rss_mb(stderr) == mb


@pytest.mark.parametrize(
    "stderr, ms",
    [
        ("VmHWM:\t   38912 kB\nreturned: 1000000000 ns\n", 21.5),
        ("returned: 900000000 ns\nreturned: 1000000000 ns\n", 21.5),  # the last line counts
        ("VmHWM:\t   38912 kB\n", None),
        ("", None),
    ],
)
def test_the_exit_time_runs_from_mains_return_to_the_process_end(stderr, ms):
    assert TOOL.exit_ms(stderr, 1_021_500_000) == ms
