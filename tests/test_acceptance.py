"""The ten release criteria, one test per criterion.

Each test prints a single "criterion NN: PASS/FAIL" line with the measured
quantities and asserts both the stated tolerance and the stated runtime
budget. Criteria 01-04 run the same checks as ``restage verify``, from
``restage.checks``. The staged-run criteria (05, 06, 09) run on the
clustered-shell prior from _toys; criterion 05's native reference shares the
staged run's boundary noise tensor, which is what makes a sub-1e-3 energy
gap resolvable at a hundred seeds (see the comparison convention in
docs/DECISIONS.md).
"""

from __future__ import annotations

import time

import numpy as np

from _toys import (
    CLASS_ZERO,
    CODEC,
    TARGET,
    BoundaryStart,
    clustered_shell_prior,
    coarse_prior,
    final_window_energies,
    monotonicity_stat,
    p_x0_mse_series,
    post_boundary_energies,
    radius_graded_prior,
    single_plan,
    staged_plan,
)
from restage import checks, cli
from restage.latent import SeededRng
from restage.sampler import run
from restage.tensorfile import read_grid, write_grid


def _verdict(num: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s / {budget_s:.0f}s budget)"
    print(line)
    assert ok and elapsed < budget_s, line


def _check_verdict(num: int, budget_s: float, *check_fns) -> None:
    """Run shared checks as one criterion; the criterion holds if every check does."""
    start = time.perf_counter()
    results = [fn() for fn in check_fns]
    _verdict(
        num,
        all(c.ok for c in results),
        budget_s,
        time.perf_counter() - start,
        ", ".join(c.detail for c in results),
    )


def test_criterion_01_preset_ladder_reproduction():
    _check_verdict(1, 1.0, checks.ladder_presets)


def test_criterion_02_snr_rewrite_identity():
    _check_verdict(2, 1.0, checks.snr_identity, checks.snr_energy_range)


def test_criterion_03_sampler_matches_affine_oracle():
    _check_verdict(3, 10.0, checks.oracle_affine)


def test_criterion_04_refresh_noise_statistics():
    _check_verdict(4, 10.0, checks.refresh_distribution)


def test_criterion_05_boundary_energy_deficit():
    start = time.perf_counter()
    prior = clustered_shell_prior()
    flat = staged_plan(3.0, 3.0)
    native = single_plan(3.0, TARGET, TARGET)
    rngs = [SeededRng(seed) for seed in range(100, 200)]
    # the native reference starts from the exact noise tensor the staged run
    # injects at its boundary, so the dominant shared noise term cancels out
    # of the gap seed by seed
    natives = run(
        "baseline", native, prior, CODEC, CLASS_ZERO, [BoundaryStart(r) for r in rngs]
    )
    stageds = run("rectified", flat, prior, CODEC, CLASS_ZERO, rngs)
    gaps = [
        post_boundary_energies(nat) - post_boundary_energies(staged)
        for nat, staged in zip(natives, stageds)
    ]
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
    rngs = [SeededRng(seed) for seed in range(100, 140)]
    natives = run(
        "baseline", native, prior, CODEC, CLASS_ZERO, [BoundaryStart(r) for r in rngs]
    )
    native_windows = [post_boundary_energies(nat) for nat in natives]
    mean_abs_gap = {}
    for scale in (3.0, 6.0, 12.0):
        stageds = run("rectified", staged_plan(3.0, scale), prior, CODEC, CLASS_ZERO, rngs)
        gaps = [
            nat_window - post_boundary_energies(staged)
            for nat_window, staged in zip(native_windows, stageds)
        ]
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
    rngs = [SeededRng(seed) for seed in range(200, 224)]
    pairs = []
    for scale in (1.0, 3.0, 5.0, 10.0):
        results = run("baseline", single_plan(scale), prior, CODEC, CLASS_ZERO, rngs)
        means = [final_window_energies(result).mean() for result in results]
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
    snapshots = []
    run(
        "baseline", single_plan(3.0), prior, CODEC, CLASS_ZERO, [SeededRng(7)],
        on_step=lambda step, p_x0: snapshots.append((step, p_x0[0])),
    )
    segments = p_x0_mse_series(snapshots)
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
    rngs = [SeededRng(seed) for seed in range(300, 310)]
    energy = {}
    for name, (variant, plan) in setups.items():
        windows = []
        for result in run(variant, plan, prior, CODEC, CLASS_ZERO, rngs):
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
    grid = rng.normal(0.0, 2.0, size=(3, 7, 5))
    path = tmp_path / "grid.rhrt"
    write_grid(path, grid)
    back = read_grid(path)
    # storage is float32; the round trip must reproduce that truncation exactly
    round_trip_exact = bool(
        np.array_equal(back, grid.astype(np.float32).astype(np.float64))
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
