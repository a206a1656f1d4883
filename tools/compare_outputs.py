"""Compare what two restage source trees write on the benchmark's inputs.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are roots of restage source checkouts, each holding
``src/restage``. For every workload in this checkout's ``bench/workloads.py``
and the workload seeds 1 and 2, the script writes the workload's inputs once
and runs the workload's first command (the arguments and base seed of
``bench/run.py``'s command 0) in a fresh interpreter per tree, with that
tree's ``src/`` on ``PYTHONPATH``. It then compares the two output
directories file by file and prints how many files are identical and, for
each differing ``.rhrt`` or ``.csv`` file, the largest |CHANGE - PARENT|
over the largest |PARENT| (per column for a CSV file; ``inf`` when the text
or the layout differs). Beside the counts it prints each tree's peak
resident size for the command: the interpreter reads its own ``VmHWM`` from
``/proc/self/status`` as it leaves ``main`` (for ``sample``, the parent
process; its forked workers leave by ``os._exit``). That is the command's
own figure, where the bench's ``peak_rss_mb`` may read the harness's. Exit
status: 0 when every file is identical, 1 when some differ, 2 when a command
fails or the two trees write different file names.

The bench's ``workloads`` and ``run`` modules are imported under their own
names, as ``python3 bench/run.py`` imports them, and only read: the commands
run under ``bench/run.py``'s thread pins. The script imports no restage code
itself. Standard library and numpy only.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2)
RUN_CLI = """\
import sys
from restage.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    sys.stderr.write("".join(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _bench_module(name: str):
    """``bench/<name>.py`` under its own name, with ``bench/`` on the path only while it loads."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def peak_rss_mb(stderr: str) -> float | None:
    """The last ``VmHWM:  <n> kB`` line of a command's stderr in MB (n / 1024,
    the bench's unit), or None when there is none."""
    lines = [line.split() for line in stderr.splitlines() if line.startswith("VmHWM:")]
    return int(lines[-1][1]) / 1024.0 if lines else None


def _first_command(tree: Path, inputs, out: Path) -> float | None:
    """Run the workload's first command on ``tree`` into ``out``; its peak RSS in MB."""
    w = inputs.workload
    argv = [sys.executable, "-c", RUN_CLI, w.command, "--config", str(inputs.config)]
    argv += ["--out", str(out), "--seed", str(inputs.command_seed(0))]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **_bench_module("run").THREAD_PINS)
    proc = subprocess.run(argv, env=env, cwd=out.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {w.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return peak_rss_mb(proc.stderr)


def _csv_change(ref: Path, got: Path) -> float:
    """Largest |got - ref| / max |ref| over the columns below the header that
    differ; inf if the layout, the header or a text cell differs."""
    a = [line.split(",") for line in ref.read_text(encoding="utf-8").splitlines()]
    b = [line.split(",") for line in got.read_text(encoding="utf-8").splitlines()]
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return float("inf")
    worst = 0.0
    for ref_col, got_col in zip(zip(*a), zip(*b)):
        if ref_col == got_col:
            continue
        if ref_col[0] != got_col[0]:
            return float("inf")
        try:
            r, g = np.array(ref_col[1:], dtype=np.float64), np.array(got_col[1:], dtype=np.float64)
        except ValueError:
            return float("inf")
        worst = max(worst, _relative(r, g))
    return worst


def _relative(ref: np.ndarray, got: np.ndarray) -> float:
    delta = float(np.max(np.abs(got - ref), initial=0.0))
    scale = float(np.max(np.abs(ref), initial=0.0))
    return delta / scale if scale else (0.0 if delta == 0 else float("inf"))


def compare(ref_dir: Path, got_dir: Path, read_rhrt) -> tuple[int, dict[str, float]]:
    """(identical file count, {differing file: relative change}) of two output directories."""
    names = sorted(p.name for p in ref_dir.iterdir())
    if names != sorted(p.name for p in got_dir.iterdir()):
        raise RuntimeError(f"{ref_dir.name}: the trees wrote different files")
    identical, changes = 0, {}
    for name in names:
        ref, got = ref_dir / name, got_dir / name
        if ref.read_bytes() == got.read_bytes():
            identical += 1
        elif name.endswith(".rhrt"):
            r, g = read_rhrt(ref), read_rhrt(got)
            changes[name] = _relative(r, g) if r.shape == g.shape else float("inf")
        elif name.endswith(".csv"):
            changes[name] = _csv_change(ref, got)
        else:
            changes[name] = float("inf")
    return identical, changes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "restage" / "__init__.py").is_file():
            print(f"error: no restage sources under {tree}", file=sys.stderr)
            return 2
    bench = _bench_module("workloads")
    differ = False
    try:
        for w in bench.WORKLOADS.values():
            for seed in SEEDS:
                with tempfile.TemporaryDirectory(prefix=f"{w.name}-") as tmp:
                    work = Path(tmp)
                    inputs = bench.generate(w, seed, work / "inputs")
                    outs = [work / "parent", work / "change"]
                    rss = [_first_command(tree, inputs, out) for tree, out in zip(trees, outs)]
                    identical, changes = compare(*outs, bench.read_rhrt)
                    peaks = " -> ".join("n/a" if mb is None else f"{mb:.2f} MB" for mb in rss)
                    print(
                        f"{w.name} seed {seed}: {identical} identical, {len(changes)} differ; "
                        f"peak RSS {peaks}"
                    )
                    for name, change in changes.items():
                        print(f"  {name}: max |d| / max |ref| = {change:.3e}")
                    differ = differ or bool(changes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
