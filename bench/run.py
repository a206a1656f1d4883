"""restage benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; restage is imported from ``src/``
and nothing needs installing. One client runs the workload's ``restage``
command again and again, each time in a fresh interpreter and only after
the previous one has finished, until the commands have taken ``--seconds``
of wall time (at least ``MIN_COMMANDS`` of them). ``--jobs`` stays at 1.

With ``--trace 0`` the result carries the end-to-end metrics:
``runs_per_s`` (sampling runs completed over the commands' total wall time,
set-up included), ``setup_s`` (the median over commands of the time from a
fresh interpreter to the first entry into ``sampler.run``) and
``peak_rss_mb`` (the median of the commands' ``ru_maxrss``). The two times
are calibrated to a nominal host speed: after each command the fixed
``yardstick.py`` runs, and both are scaled by the run's mean yardstick time
over ``YARDSTICK_NOMINAL_S``, which cancels the minutes-long drift in core
speed of a shared host. The uncalibrated values
are printed and recorded beside them.

With ``--trace 1`` every command runs twice, untraced and traced
(alternating which goes first); the traced copy wraps restage's public
functions from outside (see ``tracer.py``), its outputs must be
byte-identical to the untraced copy's, and the result carries per-layer
self times, counts and bytes per sampling run, plus the tracing overhead.

Every command's files are checked, and the first command's outputs are
compared with an independent reference (``checks.py``). A run fails when
its command exits non-zero or its outputs fail a check; ``failed`` and
``attempted`` in the result count sampling runs, and ``failed_fraction`` is
printed per workload. The last line of standard output is the result as
JSON. Spans, per-command samples and provenance are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from tracer import layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_COMMANDS = 3
YARDSTICK_NOMINAL_S = 0.35  # the yardstick's wall time at the speed the calibrated metrics assume
DEADLINE_S = 150.0  # stop starting commands, and kill a hung one, this long after start

END_TO_END = {"runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# metric name -> (what to take, span name or counter); values are per sampling run
PER_LAYER = {
    "denoiser.predict_eps_calls": ("calls", "denoiser.predict_eps"),
    "denoiser.predict_eps_s": ("self_s", "denoiser.predict_eps"),
    "denoiser.cfg_combine_s": ("self_s", "denoiser.cfg_combine"),
    "denoiser.prepare_resolution_s": ("self_s", "denoiser.prepare_resolution"),
    "sampler.run_calls": ("calls", "sampler.run"),
    "sampler.run_s": ("self_s", "sampler.run"),
    "sampler.ddim_step_calls": ("calls", "sampler.ddim_step"),
    "sampler.ddim_step_s": ("self_s", "sampler.ddim_step"),
    "sampler.noise_refresh_s": ("self_s", "sampler.noise_refresh"),
    "latent.grid_inits": ("calls", "latent.grid_init"),
    "latent.grid_init_s": ("self_s", "latent.grid_init"),
    "latent.noise_s": ("self_s", "latent.noise"),
    "latent.resize_s": ("self_s", "latent.resize"),
    "latent.energy_s": ("self_s", "latent.energy"),
    "codec.refresh_resize_calls": ("calls", "codec.refresh_resize"),
    "codec.refresh_resize_s": ("self_s", "codec.refresh_resize"),
    "codec.external_calls": ("calls", "codec.external"),
    "codec.external_s": ("self_s", "codec.external"),
    "tensorfile.write_calls": ("calls", "tensorfile.write"),
    "tensorfile.write_bytes": ("counter", "tensorfile.write_bytes"),
    "tensorfile.write_s": ("self_s", "tensorfile.write"),
    "tensorfile.read_calls": ("calls", "tensorfile.read"),
    "tensorfile.read_bytes": ("counter", "tensorfile.read_bytes"),
    "tensorfile.read_s": ("self_s", "tensorfile.read"),
    "config.load_s": ("self_s", "config.load"),
    "config.build_denoiser_s": ("self_s", "config.build_denoiser"),
    "config.build_codec_s": ("self_s", "config.build_codec"),
    "schedule.build_s": ("self_s", "schedule.build"),
    "analysis.trace_s": ("self_s", "analysis.trace"),
    "cli.command_s": ("self_s", "cli.command"),
    "cli.csv_bytes": ("counter", "cli.csv_bytes"),
}
UNITS = {"calls": "count/run", "self_s": "s/run", "counter": "B/run"}


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"), **THREAD_PINS)
    env.pop("PYTHONHOME", None)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Client:
    """Starts one command at a time and waits for it; the closed loop's only client."""

    def __init__(self, inputs, work: Path, deadline: float):
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.env = child_env(work)
        (work / "tmp").mkdir()

    def yardstick(self) -> float:
        start = time.monotonic()
        subprocess.run([sys.executable, str(BENCH_DIR / "yardstick.py")], env=self.env, cwd=self.work, check=True)
        return time.monotonic() - start

    def command(self, index: int, out: Path, trace: bool) -> dict:
        w = self.inputs.workload
        report = out.with_suffix(".json")
        argv = [sys.executable, str(BENCH_DIR / "child.py"), "--report", str(report)]
        argv += ["--trace"] if trace else []
        argv += ["--", w.command, "--config", str(self.inputs.config), "--out", str(out)]
        argv += ["--seed", str(self.inputs.command_seed(index))]
        start = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, env=self.env, cwd=self.work, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=max(5.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
        end = time.monotonic_ns()
        result = {"status": proc.returncode, "wall_s": (end - start) / 1e9, "stderr": err.decode()[-2000:]}
        try:
            data = json.loads(report.read_text())
        except (OSError, ValueError):
            return result
        if Path(data["restage_file"]).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"restage was imported from {data['restage_file']}, not from {SRC}")
        if data["first_run_ns"] is not None:
            result["setup_s"] = (data["first_run_ns"] - start) / 1e9
        result["rss_mb"] = data["maxrss_kb"] / 1024.0
        result.update({k: data[k] for k in ("spans", "counters", "calls") if k in data})
        return result


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        inputs = workloads.generate(workloads.WORKLOADS[name], seed, work / "inputs")
        client = Client(inputs, work, started + DEADLINE_S)
        subprocess.run(  # compile restage's bytecode once, as an installed package would have it
            [sys.executable, "-c", "import restage.cli"], env=client.env, cwd=work, check=True
        )
        w = inputs.workload
        samples, traced = [], []
        attempted = failed = 0
        measured = 0.0
        index = 0
        while index < MIN_COMMANDS or (measured < seconds and time.monotonic() < client.deadline):
            plain_out, traced_out = work / f"out-{index}", work / f"traced-{index}"
            order = [(plain_out, False)] + ([(traced_out, True)] if trace else [])
            if index % 2:
                order.reverse()
            results = {is_traced: client.command(index, out, is_traced) for out, is_traced in order}
            plain = results[False]
            bad = 0
            for is_traced, r in results.items():
                attempted += w.sampling_runs
                if r["status"] != 0 or "rss_mb" not in r:
                    print(f"command {index} failed ({r['status']}): {r['stderr']}", file=sys.stderr)
                    bad = max(bad, w.sampling_runs)
            if not bad:
                bad = checks.check_files(inputs, plain_out, inputs.command_seed(index))
                if index == 0:
                    bad = max(bad, checks.check_reference(inputs, plain_out, inputs.command_seed(0)))
                if trace and not same_files(plain_out, traced_out):
                    print(f"command {index}: traced outputs differ from untraced", file=sys.stderr)
                    bad = w.sampling_runs
            failed += bad * len(results)
            samples.append({k: v for k, v in plain.items() if k not in ("spans", "stderr")})
            if not trace:
                samples[-1]["yardstick_s"] = client.yardstick()
            else:
                traced.append(results[True])
                samples[-1]["traced_wall_s"] = results[True]["wall_s"]
            measured += sum(r["wall_s"] for r in results.values())
            for out, _ in order:
                shutil.rmtree(out, ignore_errors=True)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [s for s in samples if "setup_s" in s]
    metrics: dict[str, dict] = {}
    table: list[tuple] = []
    raw: dict[str, float] = {}
    if not trace and ok:
        raw = {
            "runs_per_s": w.sampling_runs * len(ok) / sum(s["wall_s"] for s in ok),
            "setup_s": statistics.median(s["setup_s"] for s in ok),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in ok),
            "yardstick_s": statistics.mean(s["yardstick_s"] for s in samples),
        }
        slowness = raw["yardstick_s"] / YARDSTICK_NOMINAL_S
        scale = {"runs_per_s": slowness, "setup_s": 1.0 / slowness, "peak_rss_mb": 1.0}
        metrics = {k: {"value": raw[k] * scale[k], "unit": unit} for k, unit in END_TO_END.items()}
    if trace and traced and all("spans" in t for t in traced):
        metrics, table = layer_metrics(traced, samples, w.sampling_runs)
        write_spans(name, seed, traced)

    result = {"correct": failed == 0 and len(metrics) > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": provenance(name, seed, seconds, trace),
        "result": result,
        "uncalibrated": raw,
        "commands": samples,
        "layers": table,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print_report(name, record)
    return result


def layer_metrics(traced: list[dict], samples: list[dict], runs_per_command: int):
    calls, self_ns, counters = Counter(), Counter(), Counter()
    for t in traced:
        c, s = layer_totals(t["spans"])
        calls.update(c)
        self_ns.update(s)
        counters.update(t["counters"])
    runs = runs_per_command * len(traced)
    metrics = {}
    for metric, (kind, key) in PER_LAYER.items():
        value = {"calls": calls[key], "self_s": self_ns[key] / 1e9, "counter": counters[key]}[kind]
        metrics[metric] = {"value": value / runs, "unit": UNITS[kind]}
    metrics["latent.grids_per_step"] = {
        "value": calls["latent.grid_init"] / max(1, calls["sampler.ddim_step"]),
        "unit": "count/step",
    }
    traced_wall = sum(s["traced_wall_s"] for s in samples)
    plain_wall = sum(s["wall_s"] for s in samples)
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1.0, "unit": "fraction"}
    total = sum(self_ns.values())
    table = sorted(
        ((n, calls[n] / runs, self_ns[n] / 1e9 / runs, self_ns[n] / total) for n in self_ns),
        key=lambda row: -row[2],
    )
    return metrics, table


def write_spans(name: str, seed: int, traced: list[dict]) -> None:
    """All spans of the run, one JSON array per line: command, name, start_ns, end_ns, parent, run."""
    with open(OUT / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for command, t in enumerate(traced):
            for span in t["spans"]:
                fh.write(json.dumps([command, *span]) + "\n")


def print_report(name: str, record: dict) -> None:
    result, prov = record["result"], record["provenance"]
    print(f"provenance: {json.dumps(prov)}")
    fraction = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"workload {name}: {len(record['commands'])} commands, {result['attempted']} runs attempted, "
        f"{result['failed']} failed, failed_fraction {fraction:.6g}"
    )
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    if record["uncalibrated"]:
        print("  uncalibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in record["uncalibrated"].items()))
    if record["layers"]:
        print(f"  {'layer (self time)':32s} {'calls/run':>12s} {'s/run':>12s} {'share':>8s}")
        for layer, calls, self_s, share in record["layers"]:
            print(f"  {layer:32s} {calls:12.6g} {self_s:12.6g} {share:8.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_PINS)  # before this process imports numpy; children inherit them
    if not (SRC / "restage" / "__init__.py").is_file():
        print(f"error: no restage sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"error: unknown workload {unknown} or non-positive --seconds", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
