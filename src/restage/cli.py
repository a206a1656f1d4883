"""Command-line interface.

Subcommands:
    ladder        print and save the staged plan for a config
    sample        execute sampling runs, write traces and final tensors
    energy-curve  average latent-energy curves across variants and sweeps
    verify        run the built-in property and oracle checks
    dump-grid     render a tensor file to one PGM image per channel

All CSV output is byte-stable: fixed column order, floats at 9 significant
digits, LF newlines.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, schedule as sched
from .codec import IdentityCodec
from .config import ExperimentConfig, build_codec, build_denoiser, check_seed_range, load_config
from .denoiser import UNCONDITIONAL, GaussianPrior
from .errors import ConfigError, TensorFormatError
from .latent import LatentGrid, SeededRng, gaussian_noise
from .sampler import RunResult, affine_trajectory_oracle, noise_refresh, run
from .tensorfile import read_tensor, write_grid

__all__ = ["main", "cmd_ladder", "cmd_sample", "cmd_energy_curve", "cmd_verify", "cmd_dump_grid"]


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _build_all(config: ExperimentConfig, base_dir: Path):
    schedule = config.build_schedule()
    timeline = config.build_timeline(schedule)
    plan = sched.build_plan(config.ladder, timeline)
    denoiser, condition = build_denoiser(config, timeline, base_dir)
    codec = build_codec(config)
    return schedule, timeline, plan, denoiser, condition, codec


def _snapshot_steps(config: ExperimentConfig):
    steps = config.run.snapshot_steps
    if steps == "all":
        return range(config.schedule.num_steps)
    return steps


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


def _run_one_seed(config: ExperimentConfig, parts, seed: int, out_dir: Path) -> None:
    _, timeline, plan, denoiser, condition, codec = parts
    result = run(
        config.run.variant,
        plan,
        timeline,
        denoiser,
        codec,
        condition,
        SeededRng(seed),
        snapshot_steps=_snapshot_steps(config),
        resize_method=config.codec.resize_method,
    )
    _write_csv(
        out_dir / f"trace_{seed}.csv",
        "step,train_t,omega,latent_energy,p_x0_energy,refreshed",
        _trace_rows(result),
    )
    write_grid(out_dir / f"final_{seed}.rhrt", result.final_p_x0)
    for step, grid in result.p_x0_snapshots:
        write_grid(out_dir / f"snapshot_{seed}_{step}.rhrt", grid)


def cmd_sample(config: ExperimentConfig, out_dir: Path, base_dir: Path, jobs: int) -> int:
    parts = _build_all(config, base_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [config.run.seed + i for i in range(config.run.run_count)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(lambda s: _run_one_seed(config, parts, s, out_dir), seeds))
    else:
        for seed in seeds:
            _run_one_seed(config, parts, seed, out_dir)
    print(f"wrote {len(seeds)} run(s) to {out_dir}")
    return 0


def _curve_setup(config: ExperimentConfig, label: str, omega: float | None):
    """Variant name and ladder to run for one energy-curve label."""
    if label == "native-baseline":
        variant = "baseline"
        ladder = replace(
            config.ladder,
            n_stages=1,
            resolutions=(config.ladder.resolutions[-1],),
            omega_max=config.ladder.omega_min,
        )
    elif label == "rectified-no-rect":
        variant = "rectified"
        ladder = sched.with_flat_omega(config.ladder)
    else:
        variant = label
        ladder = config.ladder
    if omega is not None:
        ladder = sched.with_flat_omega(ladder, omega)
    return variant, ladder


def cmd_energy_curve(config: ExperimentConfig, out_dir: Path, base_dir: Path, jobs: int) -> int:
    labels = list(config.energy.variants) or [config.run.variant]
    sweeps: list[tuple[str, str, float | None]] = []
    for label in labels:
        if config.energy.omegas:
            for w in config.energy.omegas:
                sweeps.append((f"{label}-omega{w:g}", label, w))
        else:
            sweeps.append((label, label, None))

    schedule = config.build_schedule()
    timeline = config.build_timeline(schedule)
    denoiser, condition = build_denoiser(config, timeline, base_dir)
    codec = build_codec(config)
    rows: list[str] = []
    for curve_label, label, omega in sweeps:
        variant, ladder = _curve_setup(config, label, omega)
        plan = sched.build_plan(ladder, timeline)

        def one(seed: int) -> analysis.EnergyTrace:
            result = run(
                variant,
                plan,
                timeline,
                denoiser,
                codec,
                condition,
                SeededRng(seed),
                resize_method=config.codec.resize_method,
            )
            return analysis.trace_from_run(result, f"{curve_label}:{seed}")

        seeds = [config.run.seed + i for i in range(config.run.run_count)]
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                traces = list(pool.map(one, seeds))
        else:
            traces = [one(s) for s in seeds]
        mean = analysis.mean_trace(traces, curve_label)
        for step, energy in mean.rows:
            rows.append(f"{curve_label},{step},{_fmt(energy)}")
        print(f"{curve_label}: {len(seeds)} run(s), {len(mean.rows)} steps")
    _write_csv(out_dir / "energy_curves.csv", "label,step,mean_energy", rows)
    return 0


def _check(name: str, passed: bool, detail: str, failures: list[str]) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status}  {name:24s} {detail}")
    if not passed:
        failures.append(name)


def cmd_verify(corrupt: str | None = None) -> int:
    """Self-contained property and oracle checks; non-zero exit on failure."""
    failures: list[str] = []

    schedule = sched.build_schedule()
    alpha_bar = schedule.alpha_bar.copy()
    if corrupt == "schedule":
        alpha_bar[schedule.train_steps // 2] = alpha_bar[schedule.train_steps // 2 - 1] * 1.5
    ok = (
        bool(np.all(np.diff(alpha_bar) < 0))
        and bool(np.all((alpha_bar > 0) & (alpha_bar < 1)))
        and alpha_bar[0] == 1.0 - schedule.betas[0]
    )
    _check(
        "schedule-monotonic",
        ok,
        f"alpha_bar strictly decreasing in (0, 1), first entry {_fmt(alpha_bar[0])}",
        failures,
    )

    timeline = sched.build_timeline(schedule, 50)
    ok = (
        int(timeline.step_to_train_t[0]) == schedule.train_steps - 1
        and int(timeline.step_to_train_t[-1]) == 0
        and float(timeline.alpha_bar_at_step[-1]) == 1.0
        and bool(np.all(np.diff(timeline.alpha_bar_at_step) > 0))
    )
    _check("timeline-endpoints", ok, "50 steps span the full schedule, post-terminal 1.0", failures)

    res2 = ((16, 16), (32, 32))
    res3 = ((16, 16), (32, 32), (48, 48))
    plan2 = sched.build_plan(sched.ladder_preset("paper-2048", res2), timeline)
    plan3 = sched.build_plan(sched.ladder_preset("paper-4096", res3), timeline)
    ok = (
        plan2.refresh_steps == (40,)
        and plan3.refresh_steps == (40, 45)
        and [s.omega for s in plan2.stages] == [5.0, 30.0]
        and abs(plan3.stages[1].omega - 36.81980515339464) < 1e-9
        and [plan3.stages[0].omega, plan3.stages[2].omega] == [5.0, 50.0]
    )
    _check("ladder-presets", ok, f"2048 -> {plan2.refresh_steps}, 4096 -> {plan3.refresh_steps}", failures)

    rng = np.random.default_rng(2024)
    worst = 0.0
    range_ok = True
    for _ in range(1000):
        lo, hi = np.sort(rng.uniform(1e-4, 0.9999, size=2))
        gamma = rng.uniform(1.0, 16.0)
        direct_t = sched.snr_corrected_alpha_bar(lo, gamma)
        direct_p = sched.snr_corrected_alpha_bar(hi, gamma)
        want = sched.ddim_step_coefficients(direct_t, direct_p)
        got = sched.snr_rewritten_step_coefficients(lo, hi, gamma)
        # relative error of the affine step: coefficient gaps against the
        # pair's scale, not each coefficient's own (b can cancel to ~0)
        scale = max(*(abs(c) for c in want + got), 1e-300)
        err = max(abs(w - g) for w, g in zip(want, got)) / scale
        worst = max(worst, err)
        coeff = sched.snr_energy_coefficient(hi, gamma)
        if not 1.0 - 1e-12 <= coeff <= gamma + 1e-12:
            range_ok = False
    _check("snr-identity", worst < 1e-12, f"max relative error {worst:.3e} over 1000 triples", failures)
    _check("snr-energy-range", range_ok, "noise gain within [1, gamma] on all triples", failures)

    gamma = 16.0
    dev = 0.0
    for s in range(timeline.num_steps):
        ab_t = float(timeline.alpha_bar_at_step[s])
        ab_p = float(timeline.alpha_bar_at_step[s + 1])
        factor = np.sqrt(
            (gamma - (gamma - 1) * ab_t) / (gamma - (gamma - 1) * ab_p)
        )
        dev = max(dev, abs(factor - 1.0))
    _check("snr-near-unity", dev < 0.2, f"max |gain - 1| = {_fmt(dev)} at gamma 16", failures)

    ladder1 = sched.LadderConfig(
        t_min=40, t_max=50, n_stages=1, m_t=1.0, omega_min=1.0, omega_max=1.0,
        m_omega=1.0, resolutions=((8, 8),),
    )
    plan1 = sched.build_plan(ladder1, timeline)
    prior = GaussianPrior(LatentGrid.full(2, 8, 8, 0.4), 1.3, timeline)
    oracle = affine_trajectory_oracle(plan1, timeline, prior)
    worst = 0.0
    codec = IdentityCodec()
    for k in range(100):
        srng = SeededRng(9000 + k)
        noise = gaussian_noise(2, 8, 8, srng.stream("init"))
        result = run("baseline", plan1, timeline, prior, codec, UNCONDITIONAL, srng)
        want = oracle.apply(noise, prior.mean)
        denom = max(float(np.abs(want.data).max()), 1e-12)
        worst = max(worst, float(np.abs(result.final_p_x0.data - want.data).max()) / denom)
    _check("oracle-affine", worst < 1e-9, f"max relative error {worst:.3e} over 100 noises", failures)

    p_rng = np.random.default_rng(7)
    p_x0 = LatentGrid(p_rng.normal(0.0, 1.0, size=(4, 180, 180)))
    ab_prev = 0.82
    eps = gaussian_noise(4, 180, 180, SeededRng(123).stream("refresh", 1))
    refreshed = noise_refresh(p_x0, codec, 180, 180, "bilinear", ab_prev, eps)
    residual = refreshed.data - np.sqrt(ab_prev) * p_x0.data
    z, ratio = analysis.z_test_mean_var(residual, 0.0, 1.0 - ab_prev)
    ok = abs(z) < 4.0 and 0.95 <= ratio <= 1.05
    _check("refresh-distribution", ok, f"z = {z:+.2f}, variance ratio {ratio:.4f}", failures)

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
    arr = read_tensor(input_path)
    if arr.ndim != 3:
        raise TensorFormatError(
            f"dump-grid needs a rank-3 (C, H, W) tensor, got rank {arr.ndim}", offset=8
        )
    channels = arr.shape[0]
    output_path.parent.mkdir(parents=True, exist_ok=True)
    for c in range(channels):
        if channels == 1:
            target = output_path
        else:
            target = output_path.with_name(f"{output_path.stem}_c{c}{output_path.suffix}")
        target.write_bytes(_to_pgm(arr[c].astype(np.float64)))
        print(f"wrote {target}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="experiment config file (INI format)")
    shared.add_argument("--seed", type=int, help="override the config's base seed")
    shared.add_argument("--out", help="override the config's output directory")
    shared.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")

    parser = argparse.ArgumentParser(
        prog="restage",
        description="Staged-resolution diffusion sampling laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ladder", parents=[shared], help="print and save the staged plan")
    sub.add_parser("sample", parents=[shared], help="run the sampler, write traces and tensors")
    sub.add_parser("energy-curve", parents=[shared], help="average energy curves across variants")
    verify = sub.add_parser("verify", parents=[shared], help="run property and oracle checks")
    verify.add_argument(
        "--corrupt",
        choices=["schedule"],
        help="deliberately break one input (negative control for the checks)",
    )
    dump = sub.add_parser("dump-grid", parents=[shared], help="render a tensor to PGM images")
    dump.add_argument("input", help="input .rhrt tensor file")
    dump.add_argument("output", help="output .pgm path (multi-channel adds _c<k>)")
    return parser


def _load(args) -> tuple[ExperimentConfig, Path, Path]:
    if not args.config:
        raise ConfigError("--config is required for this command")
    config = load_config(args.config)
    if args.seed is not None:
        check_seed_range(args.seed, config.run.run_count)
        config = replace(config, run=replace(config.run, seed=args.seed))
    base_dir = Path(args.config).resolve().parent
    out_dir = Path(args.out) if args.out else Path(config.run.output_dir)
    return config, out_dir, base_dir


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ladder":
            config, out_dir, _ = _load(args)
            return cmd_ladder(config, out_dir)
        if args.command == "sample":
            config, out_dir, base_dir = _load(args)
            return cmd_sample(config, out_dir, base_dir, args.jobs)
        if args.command == "energy-curve":
            config, out_dir, base_dir = _load(args)
            return cmd_energy_curve(config, out_dir, base_dir, args.jobs)
        if args.command == "verify":
            return cmd_verify(corrupt=args.corrupt)
        if args.command == "dump-grid":
            return cmd_dump_grid(Path(args.input), Path(args.output))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
