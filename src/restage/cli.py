"""Command-line interface.

Subcommands:
    ladder        print and save the staged plan for a config
    sample        execute sampling runs, write traces and final tensors
    energy-curve  average latent-energy curves across variants and sweeps
    verify        run the property and oracle checks of restage.checks
    dump-grid     render a tensor file to one PGM image per channel

All CSV output is byte-stable: fixed column order, floats at 9 significant
digits, LF newlines. Each command that writes files stages them all in a
hidden directory inside its output directory and renames them into place
only once its last write has succeeded, so a command that fails or is
interrupted publishes nothing (``docs/DECISIONS.md`` entry 17). SIGTERM
unwinds as Ctrl-C does, then exits with status 143.
``sample`` runs capped seed batches, fixed by the config alone, on one process
per CPU (``docs/DECISIONS.md`` entry 21). ``energy-curve`` runs all seeds of a
curve label as one batch, and its curves share one store of trajectory states,
so a step they share runs once (``docs/DECISIONS.md`` entry 19).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import signal
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import schedule as sched
from .config import ExperimentConfig, build_codec, build_denoiser, load_config
from .errors import SamplerError
from .latent import SeededRng
from .sampler import RunResult, run
from .tensorfile import read_grid, write_grid

__all__ = ["main", "cmd_ladder", "cmd_sample", "cmd_energy_curve", "cmd_verify", "cmd_dump_grid"]
BATCH_VALUES = 2**19  # a batch's latent at its largest stage: 4 MiB of float64


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(f"{line}\n".encode("utf-8") for line in (header, *rows))


@contextlib.contextmanager
def _commit(out_dir: Path):
    """Yield a staging directory inside ``out_dir``; publish its files only if the block succeeds.

    After the block's last write, each staged file is renamed into
    ``out_dir``, replacing a same-named file. The staging directory is
    removed on success, on any exception and on an interrupt.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".restage-", dir=out_dir) as stage:
        yield Path(stage)
        for path in sorted(Path(stage).iterdir()):
            os.replace(path, out_dir / path.name)


def _build_all(config: ExperimentConfig):
    timeline = config.build_timeline()
    plan = sched.build_plan(config.ladder, timeline)
    denoiser, class_label = build_denoiser(config)
    return timeline, plan, denoiser, class_label, build_codec(config)


def cmd_ladder(config: ExperimentConfig, out_dir: Path) -> int:
    timeline = config.build_timeline()
    plan = sched.build_plan(config.ladder, timeline)
    print(f"refresh steps: {list(plan.refresh_steps)}")
    print(f"omegas:        {[float(_fmt(s.omega)) for s in plan.stages]}")
    rows = []
    for s in plan.stages:
        print(
            f"stage {s.index}: steps [{s.first_step}, {s.last_step}) "
            f"at {s.height}x{s.width}, omega {_fmt(s.omega)}"
        )
        rows.append(f"{s.index},{s.first_step},{s.last_step},{s.height},{s.width},{_fmt(s.omega)}")
    with _commit(out_dir) as stage:
        _write_csv(stage / "ladder.csv", "stage,first_step,last_step,height,width,omega", rows)
    return 0


def _trace_rows(result: RunResult) -> list[str]:
    rows = []
    for r in result.trace:
        flag = "true" if r.refreshed else "false"
        rows.append(
            f"{r.step},{r.train_t},{_fmt(r.omega)},{_fmt(r.latent_energy)},"
            f"{_fmt(r.p_x0_energy)},{flag}"
        )
    return rows


def _partition(seeds: list[int], values: int) -> list[list[int]]:
    """The fewest contiguous, balanced batches of ``seeds`` under the cap, at ``values`` per seed."""
    count = -(-len(seeds) // max(1, BATCH_VALUES // values))
    size, extra = divmod(len(seeds), count)
    ends = [k * size + min(k, extra) for k in range(count + 1)]
    return [seeds[a:b] for a, b in zip(ends, ends[1:])]


def _fan_out(batches: list[list[int]], work: Callable[[list[int]], None]) -> None:
    """Call ``work`` on each batch, batch i on worker i % w of w = min(CPUs, batches), or 1 from
    Python 3.12, this process or a forked child; raise the failure of the first batch in seed
    order among those that failed (``docs/DECISIONS.md`` entry 21)."""
    cpus = sorted(os.sched_getaffinity(0))
    # from Python 3.12 os.fork warns in a process with threads (OpenBLAS's): one worker, this process
    w = 1 if sys.version_info >= (3, 12) else min(len(cpus), len(batches))
    failures: list[tuple[int, Exception]] = []  # (batch index, its failure)
    children: dict[int, int] = {}  # pid: the read end of its report pipe
    alive: set[int] = set()  # the children neither stopped nor seen to end
    taken: list[int] = []  # the stops (Ctrl-C, SIGTERM) that reached this process
    handlers = {s: h for s in (signal.SIGINT, signal.SIGTERM) if callable(h := signal.getsignal(s))}
    working = False  # whether a stop unwinds worker 0's batches; otherwise it waits for the reap

    def halt() -> None:  # SIGTERM, once, to each child still running
        while alive:
            os.kill(alive.pop(), signal.SIGTERM)

    def stop(signum, frame) -> None:  # the handler of Ctrl-C and SIGTERM while the workers run
        taken.append(signum)
        halt()
        if working:
            handlers[signum](signum, frame)

    def share(k: int) -> None:  # worker k's batches, on its share of the CPUs, to its first failure
        os.sched_setaffinity(0, cpus[k::w])
        try:
            for i in range(k, len(batches), w):
                work(batches[i])
        except (ValueError, RuntimeError, OSError) as exc:  # the failures main reports
            failures.append((i, exc))

    # a stop sent to a child before its interpreter can take it would be lost, so it waits
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    for s in handlers:
        signal.signal(s, stop)
    finished = False
    try:
        for k in range(1, w):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # a child: its share, then its failures down the pipe
                try:
                    for s, h in handlers.items():
                        signal.signal(s, h)
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                    share(k)
                    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})  # a whole report
                    os.write(write, pickle.dumps([(i, SamplerError(str(e))) for i, e in failures]))
                except Exception:  # not a failure main reports: its traceback, and no report
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(0)  # the parent reads the report, not the status
            os.close(write)
            children[pid] = read
            alive.add(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        working = not taken
        if working:
            share(0)
        finished = True
    finally:
        working = False
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        os.sched_setaffinity(0, cpus)
        for pid, read in children.items():  # in order; once anything has failed, the rest get SIGTERM
            if taken or failures or not finished:
                halt()
            with open(read, "rb") as pipe:
                report = pipe.read()
            alive.discard(pid)
            os.waitpid(pid, 0)
            lost = [(len(batches), SamplerError("a sampling worker stopped unreported"))]
            failures += pickle.loads(report) if report else lost
        for s, h in handlers.items():
            signal.signal(s, h)
    if taken:  # a stop that came while worker 0 ran no batch, raised now that every child is reaped
        handlers[taken[0]](taken[0], None)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def cmd_sample(config: ExperimentConfig, out_dir: Path) -> int:
    timeline, plan, denoiser, class_label, codec = _build_all(config)
    seeds = [config.run.seed + i for i in range(config.run.run_count)]
    values = denoiser.channels * max(st.height * st.width for st in plan.stages)
    wanted = frozenset(config.run.snapshot_steps)
    with _commit(out_dir) as stage:
        def sample(batch: list[int]) -> None:
            def snapshot(step: int, p_x0: np.ndarray) -> None:
                if step in wanted:
                    for seed, row in zip(batch, p_x0):
                        write_grid(stage / f"snapshot_{seed}_{step}.rhrt", row)

            results = run(
                config.run.variant, plan, timeline, denoiser, codec, class_label,
                [SeededRng(seed) for seed in batch], on_step=snapshot,
            )
            for seed, result in zip(batch, results):
                _write_csv(
                    stage / f"trace_{seed}.csv",
                    "step,train_t,omega,latent_energy,p_x0_energy,refreshed",
                    _trace_rows(result),
                )
                write_grid(stage / f"final_{seed}.rhrt", result.final_p_x0)

        _fan_out(_partition(seeds, values), sample)
    print(f"wrote {len(seeds)} run(s) to {out_dir}")
    return 0


def cmd_energy_curve(config: ExperimentConfig, out_dir: Path) -> int:
    from . import analysis  # imported here so other commands do not load it

    timeline, plan, denoiser, class_label, codec = _build_all(config)
    # one plan per flat guidance scale, shared by every variant
    flat = {
        w: sched.build_plan(config.ladder._replace(omega_min=w, omega_max=w), timeline)
        for w in config.energy.omegas
    }

    # one set of bundles and one store for every curve, so a shared step runs once
    rngs = [SeededRng(config.run.seed + i) for i in range(config.run.run_count)]
    rows: list[str] = []
    shared: dict = {}
    for label, variant, omega in config.energy.curves(config.run.variant):
        curve_plan = plan if omega is None else flat[omega]
        results = run(variant, curve_plan, timeline, denoiser, codec, class_label, rngs, shared=shared)
        mean = analysis.mean_trace([analysis.trace_from_run(result) for result in results])
        for row, energy in zip(results[0].trace, mean):
            rows.append(f"{label},{row.step},{_fmt(energy)}")
        print(f"{label}: {len(rngs)} run(s), {len(mean)} steps")
    with _commit(out_dir) as stage:
        _write_csv(stage / "energy_curves.csv", "label,step,mean_energy", rows)
    return 0


def cmd_verify(corrupt: str | None = None) -> int:
    """Run every check in :mod:`restage.checks`; non-zero exit on failure."""
    from . import checks  # imported here so other commands do not load it

    failures: list[str] = []
    for check in checks.run_all(corrupt_schedule=corrupt == "schedule"):
        print(f"{'PASS' if check.ok else 'FAIL'}  {check.name:24s} {check.detail}")
        if not check.ok:
            failures.append(check.name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def _to_pgm(channel: np.ndarray) -> bytes:
    lo, hi = float(channel.min()), float(channel.max())
    if lo == hi:
        pixels = np.full(channel.shape, 128, dtype=np.uint8)
    else:
        pixels = np.floor((channel - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)
    h, w = channel.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def cmd_dump_grid(input_path: Path, output_path: Path) -> int:
    arr = read_grid(input_path)
    names = [output_path.name]
    if arr.shape[0] > 1:
        names = [f"{output_path.stem}_c{c}{output_path.suffix}" for c in range(arr.shape[0])]
    with _commit(output_path.parent) as stage:
        for name, channel in zip(names, arr):
            with open(stage / name, "wb") as fh:
                fh.write(_to_pgm(channel))
    for name in names:
        print(f"wrote {output_path.with_name(name)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="experiment config file (INI format)")
    shared.add_argument("--out", default="out", help="output directory (default: out)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[shared])
    seeded.add_argument("--seed", type=int, help="override the config's base seed")

    parser = argparse.ArgumentParser(
        prog="restage",
        description="Staged-resolution diffusion sampling laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ladder", parents=[shared], help="print and save the staged plan")
    sub.add_parser("sample", parents=[seeded], help="run the sampler, write traces and tensors")
    sub.add_parser("energy-curve", parents=[seeded], help="average energy curves across variants")
    verify = sub.add_parser("verify", help="run property and oracle checks")
    verify.add_argument(
        "--corrupt",
        choices=["schedule"],
        help="deliberately break one input (negative control for the checks)",
    )
    dump = sub.add_parser("dump-grid", help="render a tensor to PGM images")
    dump.add_argument("input", help="input .rhrt tensor file")
    dump.add_argument("output", help="output .pgm path (multi-channel adds _c<k>)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # SIGTERM unwinds as Ctrl-C does, so codec commands are reaped and files cleaned up
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.command == "ladder":
            return cmd_ladder(load_config(args.config), Path(args.out))
        if args.command == "sample":
            return cmd_sample(load_config(args.config, args.seed), Path(args.out))
        if args.command == "energy-curve":
            return cmd_energy_curve(load_config(args.config, args.seed), Path(args.out))
        if args.command == "verify":
            return cmd_verify(corrupt=args.corrupt)
        if args.command == "dump-grid":
            return cmd_dump_grid(Path(args.input), Path(args.output))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
