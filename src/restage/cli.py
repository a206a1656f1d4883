"""Command-line interface.

Subcommands:
    ladder        print and save the staged plan for a config
    sample        execute sampling runs, write traces and final tensors
    energy-curve  average latent-energy curves across variants and sweeps
    verify        run the property and oracle checks of restage.checks
    dump-grid     render a tensor file to one PGM image per channel

All CSV output is byte-stable: fixed column order, floats at 9 significant
digits, LF newlines. Every file is written under a temporary name and renamed
into place. SIGTERM unwinds as Ctrl-C does, then exits with status 143, and
a failed or interrupted ``sample`` removes the snapshots it wrote.
``sample`` runs all seeds of a command as one batch, ``energy-curve`` all
seeds of one curve label; no flag or config key changes that partition.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

import numpy as np

from . import schedule as sched
from .config import ExperimentConfig, build_codec, build_denoiser, load_config
from .errors import ConfigError
from .latent import SeededRng
from .sampler import RunResult, run
from .tensorfile import read_grid, write_atomic, write_grid

__all__ = ["main", "cmd_ladder", "cmd_sample", "cmd_energy_curve", "cmd_verify", "cmd_dump_grid"]


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, (f"{line}\n".encode("utf-8") for line in (header, *rows)))


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
    _write_csv(out_dir / "ladder.csv", "stage,first_step,last_step,height,width,omega", rows)
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


def cmd_sample(config: ExperimentConfig, out_dir: Path) -> int:
    timeline, plan, denoiser, class_label, codec = _build_all(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [config.run.seed + i for i in range(config.run.run_count)]
    snapshots: list[Path] = []

    def write_snapshot(index: int, step: int, p_x0: np.ndarray) -> None:
        snapshots.append(out_dir / f"snapshot_{seeds[index]}_{step}.rhrt")
        write_grid(snapshots[-1], p_x0)

    try:
        results = run(
            config.run.variant, plan, timeline, denoiser, codec, class_label,
            [SeededRng(seed) for seed in seeds], snapshot_steps=config.run.snapshot_steps,
            on_snapshot=write_snapshot,
        )
    except BaseException:
        # a failed or interrupted run leaves none of its snapshots behind
        for path in snapshots:
            path.unlink(missing_ok=True)
        raise
    for seed, result in zip(seeds, results):
        _write_csv(
            out_dir / f"trace_{seed}.csv",
            "step,train_t,omega,latent_energy,p_x0_energy,refreshed",
            _trace_rows(result),
        )
        write_grid(out_dir / f"final_{seed}.rhrt", result.final_p_x0)
    print(f"wrote {len(seeds)} run(s) to {out_dir}")
    return 0


def cmd_energy_curve(config: ExperimentConfig, out_dir: Path) -> int:
    from . import analysis  # imported here so other commands do not load it

    timeline, plan, denoiser, class_label, codec = _build_all(config)
    variants = config.energy.variants or (config.run.variant,)
    if config.energy.omegas:
        # one plan per flat guidance scale, shared by every variant
        flat = [
            (w, sched.build_plan(config.ladder._replace(omega_min=w, omega_max=w), timeline))
            for w in config.energy.omegas
        ]
        curves = [(f"{v}-omega{w:g}", v, p) for v in variants for w, p in flat]
    else:
        curves = [(v, v, plan) for v in variants]
    labels = [label for label, _, _ in curves]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"energy.variants/energy.omegas: curve label {label!r} repeats")

    seeds = [config.run.seed + i for i in range(config.run.run_count)]
    rows: list[str] = []
    for label, variant, curve_plan in curves:
        results = run(
            variant, curve_plan, timeline, denoiser, codec, class_label,
            [SeededRng(s) for s in seeds],
        )
        mean = analysis.mean_trace([analysis.trace_from_run(result) for result in results])
        for row, energy in zip(results[0].trace, mean):
            rows.append(f"{label},{row.step},{_fmt(energy)}")
        print(f"{label}: {len(seeds)} run(s), {len(mean)} steps")
    _write_csv(out_dir / "energy_curves.csv", "label,step,mean_energy", rows)
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
    channels = arr.shape[0]
    output_path.parent.mkdir(parents=True, exist_ok=True)
    for c in range(channels):
        if channels == 1:
            target = output_path
        else:
            target = output_path.with_name(f"{output_path.stem}_c{c}{output_path.suffix}")
        write_atomic(target, [_to_pgm(arr[c])])
        print(f"wrote {target}")
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
