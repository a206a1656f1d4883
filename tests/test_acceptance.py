"""The ten release criteria, one test per criterion.

Each test prints a single "criterion NN: PASS/FAIL" line with the measured
quantities and asserts both the stated tolerance and the stated runtime
budget. The staged-run criteria (05, 06, 09) run on the clustered-shell
prior from _toys; criterion 05's native reference shares the staged run's
boundary noise tensor, which is what makes a sub-1e-3 energy gap resolvable
at a hundred seeds (see notes on the comparison convention in the repo's
decision log).
"""

from __future__ import annotations

import time

import numpy as np

from _toys import (
    BASE,
    CHANNELS,
    CLASS_ZERO,
    CODEC,
    TARGET,
    TIMELINE,
    clustered_shell_prior,
    coarse_prior,
    final_window_energies,
    post_boundary_energies,
    radius_graded_prior,
    single_plan,
    staged_plan,
)
from restage import cli
from restage.analysis import monotonicity_stat, p_x0_mse_series, z_test_mean_var
from restage.denoiser import GaussianPrior, UNCONDITIONAL
from restage.latent import LatentGrid, SeededRng, gaussian_noise
from restage.sampler import affine_trajectory_oracle, noise_refresh, run
from restage.schedule import (
    build_plan,
    ddim_step_coefficients,
    ladder_preset,
    snr_corrected_alpha_bar,
    snr_energy_coefficient,
    snr_rewritten_step_coefficients,
)
from restage.tensorfile import read_grid, write_grid


def _verdict(num: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s / {budget_s:.0f}s budget)"
    print(line)
    assert ok and elapsed < budget_s, line


def test_criterion_01_preset_ladder_reproduction():
    start = time.perf_counter()
    two = build_plan(ladder_preset("paper-2048", ((BASE, BASE), (TARGET, TARGET))), TIMELINE)
    three = build_plan(
        ladder_preset("paper-4096", ((BASE, BASE), (24, 24), (TARGET, TARGET))), TIMELINE
    )
    want_two = [5.0, 30.0]
    want_three = [5.0, 36.81980515339464, 50.0]
    ok = (
        two.refresh_steps == (40,)
        and three.refresh_steps == (40, 45)
        and all(abs(s.omega - w) < 1e-9 for s, w in zip(two.stages, want_two))
        and all(abs(s.omega - w) < 1e-9 for s, w in zip(three.stages, want_three))
    )
    _verdict(
        1,
        ok,
        1.0,
        time.perf_counter() - start,
        f"boundaries {list(two.refresh_steps)} / {list(three.refresh_steps)}, "
        f"scales {[s.omega for s in two.stages]} / {[round(s.omega, 7) for s in three.stages]}",
    )


def test_criterion_02_snr_rewrite_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    gain_in_range = True
    for _ in range(1000):
        lo, hi = np.sort(rng.uniform(1e-4, 0.9999, size=2))
        gamma = float(rng.uniform(1.0, 16.0))
        direct = ddim_step_coefficients(
            snr_corrected_alpha_bar(float(lo), gamma),
            snr_corrected_alpha_bar(float(hi), gamma),
        )
        rewritten = snr_rewritten_step_coefficients(float(lo), float(hi), gamma)
        # relative error of the affine step as a whole; the eps coefficient
        # alone can cancel to ~0 and has no meaningful own-scale
        scale = max(*(abs(c) for c in direct + rewritten), 1e-300)
        worst = max(worst, max(abs(d - r) for d, r in zip(direct, rewritten)) / scale)
        gain = snr_energy_coefficient(float(hi), gamma)
        if not 1.0 - 1e-12 <= gain <= gamma + 1e-12:
            gain_in_range = False
    ok = worst < 1e-12 and gain_in_range
    _verdict(
        2,
        ok,
        1.0,
        time.perf_counter() - start,
        f"max relative error {worst:.3e} over 1000 triples, noise gain within [1, gamma]: {gain_in_range}",
    )


def test_criterion_03_sampler_matches_affine_oracle():
    start = time.perf_counter()
    plan = single_plan(1.0, 8, 8)
    prior = GaussianPrior(LatentGrid.full(2, 8, 8, 0.4), 1.3, TIMELINE)
    oracle = affine_trajectory_oracle(plan, TIMELINE, prior)
    worst = 0.0
    for k in range(100):
        rng = SeededRng(9000 + k)
        noise = gaussian_noise(2, 8, 8, rng.stream("init"))
        got = run("baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, rng)
        want = oracle.apply(noise, prior.mean)
        denom = max(float(np.abs(want.data).max()), 1e-12)
        worst = max(worst, float(np.abs(got.final_p_x0.data - want.data).max()) / denom)

    base = run("baseline", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(55))
    corrected = run("snr-corrected", plan, TIMELINE, prior, CODEC, UNCONDITIONAL, SeededRng(55))
    identical = bool(
        np.array_equal(base.final_p_x0.data, corrected.final_p_x0.data)
        and base.trace == corrected.trace
    )
    ok = worst < 1e-9 and identical
    _verdict(
        3,
        ok,
        10.0,
        time.perf_counter() - start,
        f"max relative error {worst:.3e} over 100 noises, unit-gamma correction bit-identical: {identical}",
    )


def test_criterion_04_refresh_noise_statistics():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    clean = LatentGrid(rng.normal(0.0, 1.0, size=(4, 180, 180)))
    level = 0.82
    eps = gaussian_noise(4, 180, 180, SeededRng(123).stream("refresh", 1))
    # same size, identity codec: the resize inside is a no-op, so the output
    # must be exactly sqrt(level) * clean + sqrt(1 - level) * eps
    refreshed = noise_refresh(clean, CODEC, 180, 180, "bilinear", level, eps)
    residual = refreshed.data - np.sqrt(level) * clean.data
    z, ratio = z_test_mean_var(residual, 0.0, 1.0 - level)
    ok = abs(z) < 4.0 and 0.95 <= ratio <= 1.05
    _verdict(
        4,
        ok,
        10.0,
        time.perf_counter() - start,
        f"z {z:+.2f}, variance ratio {ratio:.4f} over {residual.size} elements",
    )


def test_criterion_05_boundary_energy_deficit():
    start = time.perf_counter()
    prior = clustered_shell_prior()
    flat = staged_plan(3.0, 3.0)
    native = single_plan(3.0, TARGET, TARGET)
    seeds = range(100, 200)
    gaps = []
    for seed in seeds:
        # the native reference starts from the exact noise tensor the staged
        # run injects at its boundary, so the dominant shared noise term
        # cancels out of the gap seed by seed
        boundary_noise = gaussian_noise(CHANNELS, TARGET, TARGET, SeededRng(seed).stream("refresh", 1))
        nat = run(
            "baseline", native, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed),
            initial_noise=boundary_noise,
        )
        staged = run("rectified", flat, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed))
        gaps.append(post_boundary_energies(nat) - post_boundary_energies(staged))
    per_step = np.mean(gaps, axis=0)
    ok = bool((per_step > 0).all())
    _verdict(
        5,
        ok,
        120.0,
        time.perf_counter() - start,
        f"native-minus-staged mean gap over {len(gaps)} seeds: min {per_step.min():+.3e}, "
        f"mean {per_step.mean():+.3e}, positive at all 9 post-boundary steps: {ok}",
    )


def test_criterion_06_guidance_closes_the_deficit():
    start = time.perf_counter()
    prior = clustered_shell_prior()
    native = single_plan(3.0, TARGET, TARGET)
    seeds = range(100, 140)
    native_windows = []
    for seed in seeds:
        boundary_noise = gaussian_noise(CHANNELS, TARGET, TARGET, SeededRng(seed).stream("refresh", 1))
        nat = run(
            "baseline", native, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed),
            initial_noise=boundary_noise,
        )
        native_windows.append(post_boundary_energies(nat))
    mean_abs_gap = {}
    for scale in (3.0, 6.0, 12.0):
        plan = staged_plan(3.0, scale)
        gaps = []
        for seed, nat_window in zip(seeds, native_windows):
            staged = run("rectified", plan, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed))
            gaps.append(nat_window - post_boundary_energies(staged))
        mean_abs_gap[scale] = abs(float(np.mean(gaps)))
    unrectified = mean_abs_gap[3.0]
    best = min(mean_abs_gap.values())
    reduction = (unrectified - best) / unrectified
    ok = reduction >= 0.5
    _verdict(
        6,
        ok,
        300.0,
        time.perf_counter() - start,
        f"gap {unrectified:.3e} at held scale vs best swept {best:.3e}, "
        f"reduction {reduction:.1%} (need >= 50%)",
    )


def test_criterion_07_energy_rises_with_guidance():
    start = time.perf_counter()
    prior = radius_graded_prior()
    pairs = []
    for scale in (1.0, 3.0, 5.0, 10.0):
        plan = single_plan(scale)
        means = [
            final_window_energies(
                run("baseline", plan, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed))
            ).mean()
            for seed in range(200, 224)
        ]
        pairs.append((scale, float(np.mean(means))))
    stat = monotonicity_stat(pairs)
    ok = stat == 1.0
    _verdict(
        7,
        ok,
        120.0,
        time.perf_counter() - start,
        "rank correlation "
        + f"{stat:+.3f} over " + ", ".join(f"({w:g}, {e:.6f})" for w, e in pairs),
    )


def test_criterion_08_late_estimate_flattening():
    start = time.perf_counter()
    prior = coarse_prior()
    result = run(
        "baseline", single_plan(3.0), TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(7),
        snapshot_steps=range(50),
    )
    segments = p_x0_mse_series(list(result.p_x0_snapshots))
    assert len(segments) == 1, "single-resolution run must produce one segment"
    series = segments[0]
    early = float(np.mean([m for s, m in series if s < 10]))
    late = float(np.mean([m for s, m in series if s >= 30]))
    ratio = late / early
    ok = ratio < 0.2
    _verdict(
        8,
        ok,
        60.0,
        time.perf_counter() - start,
        f"late-window mean MSE {late:.3e} vs early {early:.3e}, ratio {ratio:.4f} (need < 0.2)",
    )


def test_criterion_09_ablation_variants_distinct():
    start = time.perf_counter()
    prior = clustered_shell_prior()
    setups = {
        "full": ("rectified", staged_plan(3.0, 12.0)),
        "held-scale": ("rectified", staged_plan(3.0, 3.0)),
        "plain-resize": ("latent-resize", staged_plan(3.0, 3.0)),
    }
    energy = {}
    for name, (variant, plan) in setups.items():
        windows = []
        for seed in range(300, 310):
            result = run(variant, plan, TIMELINE, prior, CODEC, CLASS_ZERO, SeededRng(seed))
            assert len(result.trace) == 50
            assert result.trace[40].refreshed and not result.trace[39].refreshed
            windows.append(post_boundary_energies(result).mean())
        energy[name] = float(np.mean(windows))
    gaps = [
        abs(energy["full"] - energy["held-scale"]),
        abs(energy["full"] - energy["plain-resize"]),
        abs(energy["held-scale"] - energy["plain-resize"]),
    ]
    ok = min(gaps) > 1e-6
    _verdict(
        9,
        ok,
        120.0,
        time.perf_counter() - start,
        "post-boundary energies "
        + ", ".join(f"{k} {v:.6f}" for k, v in energy.items())
        + f", smallest pairwise gap {min(gaps):.2e}",
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    start = time.perf_counter()
    config = tmp_path / "run.ini"
    config.write_text(
        "[schedule]\n"
        "num_steps = 10\n"
        "[ladder]\n"
        "t_min = 5\n"
        "t_max = 10\n"
        "n_stages = 1\n"
        "m_t = 1\n"
        "omega_min = 2\n"
        "omega_max = 2\n"
        "m_omega = 1\n"
        "resolutions = 8x8\n"
        "[denoiser]\n"
        "kind = gaussian\n"
        "mean_value = 0.25\n"
        "variance = 1.5\n"
        "[run]\n"
        "variant = baseline\n"
        "seed = 4\n"
        "run_count = 2\n",
        encoding="utf-8",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli.main(["sample", "--config", str(config), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    byte_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )

    rng = np.random.default_rng(31337)
    grid = LatentGrid(rng.normal(0.0, 2.0, size=(3, 7, 5)))
    path = tmp_path / "grid.rhrt"
    write_grid(path, grid)
    back = read_grid(path)
    # storage is float32; the round trip must reproduce that truncation exactly
    round_trip_exact = bool(
        np.array_equal(back.data, grid.data.astype(np.float32).astype(np.float64))
    )
    write_grid(tmp_path / "again.rhrt", back)
    rewrites_identical = (tmp_path / "again.rhrt").read_bytes() == path.read_bytes()

    ok = byte_identical and round_trip_exact and rewrites_identical
    _verdict(
        10,
        ok,
        10.0,
        time.perf_counter() - start,
        f"{len(names)} files byte-identical across reruns: {byte_identical}, "
        f"tensor round trip exact: {round_trip_exact and rewrites_identical}",
    )
