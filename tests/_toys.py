"""Shared toy constructions for the test suite.

Import-only module: the training schedule, a 50-step timeline, a
linear-beta schedule for tiny hand-checked timelines, the plan builders the
staged-run tests use, the stream bundle that starts criteria 05 and 06's
native runs from the staged runs' boundary noise, and three dataset priors whose layouts were tuned for
specific measurable responses (each builder's docstring says which). Nothing
at module level executes a sampling run. It also holds oracles: the
direct-difference point-set posterior that the matrix-form kernel is checked
against, the allocating forms of the update, the guidance combine and the
Gaussian prediction that the in-place step kernel must match bit for bit,
the one-seed noise refresh that the batched boundary must match, the
one-grid resize that the channel-stack resize must match, and the pairwise
mean that the per-seed energies must agree with to rounding. Then
the two statistics only criteria 07 and 08 use, external codec stubs:
scripts speaking the codec file protocol, and a reader of the concurrency
one of them logs. Last, the one loader through which every test reads the
bench's modules, its workloads and its independent reference run among them,
so a session holds a single copy of each.
"""

from __future__ import annotations

import importlib
import math
import sys
import textwrap
from pathlib import Path

import numpy as np

from restage.codec import IdentityCodec, refresh_resize
from restage.denoiser import DatasetPrior
from restage.latent import _axis_lerp_indices
from restage.schedule import LadderConfig, NoiseSchedule, build_plan, build_schedule, build_timeline

CHANNELS = 4
BASE = 16
TARGET = 32
CLASS_ZERO = 0

SCHEDULE = build_schedule()
TIMELINE = build_timeline(SCHEDULE, 50)
CODEC = IdentityCodec()


def linear_schedule(beta_start, beta_end, train_steps):
    """A schedule whose beta is linear in the timestep, for tiny timelines with
    levels easy to work out by hand: ``linear_schedule(0.5, 0.5, 1)`` has the
    single level 0.5."""
    betas = np.linspace(beta_start, beta_end, train_steps, dtype=np.float64)
    return NoiseSchedule(betas=betas, alpha_bar=np.cumprod(1.0 - betas))


def ladder(n_stages, omega_lo, omega_hi, resolutions):
    return LadderConfig(
        t_min=40,
        t_max=50,
        n_stages=n_stages,
        m_t=1.0,
        omega_min=omega_lo,
        omega_max=omega_hi,
        m_omega=1.0,
        resolutions=resolutions,
    )


def staged_plan(omega_lo, omega_hi):
    """Two stages, 16x16 then 32x32, boundary at step 40."""
    return build_plan(ladder(2, omega_lo, omega_hi, ((BASE, BASE), (TARGET, TARGET))), TIMELINE)


def single_plan(omega, height=BASE, width=BASE):
    """One stage at a fixed resolution and guidance scale."""
    return build_plan(ladder(1, omega, omega, ((height, width),)), TIMELINE)


def post_boundary_energies(result):
    """Latent energies of trace rows 41..49, the steps after the boundary row."""
    return np.array([r.latent_energy for r in result.trace if 41 <= r.step < 50])


def final_window_energies(result):
    """Latent energies of the last ten trace rows."""
    return np.array([r.latent_energy for r in result.trace if 40 <= r.step < 50])


class BoundaryStart:
    """A seed's streams, except that its initial latent draws the noise its
    staged 16 -> 32 run injects at the boundary, ``stream("refresh", 1)``."""

    def __init__(self, rng):
        self.rng, self.seed = rng, rng.seed

    def stream(self, purpose, index=0):
        return self.rng.stream(*(("refresh", 1) if purpose == "init" else (purpose, index)))


def clustered_shell_prior():
    """64 points at 4x16x16 whose guided branch resists the boundary's smoothing.

    Class 0 is organised as 16 near-duplicate pairs (12 of which carry two
    class-1 points at 93% and 87% of their radius, just inside them) plus 8
    scattered singletons; every point has elementwise RMS 0.06. Late in a
    run the posterior locks onto one pair, and conditioning on class 0 makes
    the guided branch push outward against that pair's interior class-1
    points, so the post-boundary energy of a staged run responds to the
    stage-1 guidance scale. The bare pairs and singletons set how often the
    lock lands on a shelled cluster.
    """
    rng = np.random.default_rng(4242)
    target_norm = 0.06 * np.sqrt(CHANNELS * BASE * BASE)
    theta = 0.15
    points, labels = [], []

    def draw():
        g = rng.normal(0.0, 1.0, size=(CHANNELS, BASE, BASE))
        return g * (target_norm / np.linalg.norm(g))

    def rotate(g):
        t = rng.normal(0.0, 1.0, size=(CHANNELS, BASE, BASE))
        t -= g * float((t * g).sum() / (g * g).sum())
        t *= target_norm / np.linalg.norm(t)
        return np.cos(theta) * g + np.sin(theta) * t

    for _ in range(12):
        g = draw()
        points.append(g)
        labels.append(0)
        points.append(rotate(g))
        labels.append(0)
        for lam in (0.93, 0.87):
            points.append(g * lam)
            labels.append(1)
    for _ in range(4):
        g = draw()
        points.append(g)
        labels.append(0)
        points.append(rotate(g))
        labels.append(0)
    for _ in range(8):
        points.append(draw())
        labels.append(0)
    assert len(points) == 64
    return DatasetPrior(np.stack(points), labels)


def radius_graded_prior():
    """64 points with RMS graded over [0.054, 0.066]; the outer half is class 0.

    Guidance toward class 0 pulls the run outward, and more guidance pulls
    harder, so the final-window energy increases strictly with the guidance
    scale.
    """
    rng = np.random.default_rng(777)
    points, labels = [], []
    for i in range(64):
        g = rng.normal(0.0, 1.0, size=(CHANNELS, BASE, BASE))
        radius = 0.9 + 0.2 * (i / 63.0)
        g *= (0.06 * radius * np.sqrt(CHANNELS * BASE * BASE)) / np.linalg.norm(g)
        points.append(g)
        labels.append(0 if radius > 1.0 else 1)
    return DatasetPrior(np.stack(points), labels)


def coarse_prior():
    """16 well-separated unit-RMS points, one class.

    The posterior decides between them early in a run, after which the
    clean-signal estimate barely moves; used by the flattening checks.
    """
    rng = np.random.default_rng(99)
    points = []
    for _ in range(16):
        g = rng.normal(0.0, 1.0, size=(CHANNELS, BASE, BASE))
        g *= np.sqrt(CHANNELS * BASE * BASE) / np.linalg.norm(g)
        points.append(g)
    return DatasetPrior(np.stack(points), [0] * 16)


def direct_posterior_mean(prior, x_t, alpha_bar_t, label):
    """Reference point-set posterior mean from the explicit difference stack.

    Builds x_t - sqrt(ab) * p_i for every point and sums its squares; the
    production kernel drops the shared ||x_t||^2 term instead, so the two
    agree to float64 rounding of the log-weights.
    """
    if not 0.0 < alpha_bar_t < 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1), got {alpha_bar_t}")
    if x_t.shape[0] != prior.channels:
        raise ValueError(f"expected {prior.channels} channels, got {x_t.shape[0]}")
    stack = prior.prepare_resolution(*x_t.shape[1:])
    if label is not None:
        mask = np.array([lab == label for lab in prior.labels])
        if not mask.any():
            raise ValueError(f"no points carry label {label}")
        stack = stack[mask]
    diffs = x_t[None, ...] - np.sqrt(alpha_bar_t) * stack
    log_w = -np.sum(diffs * diffs, axis=(1, 2, 3)) / (2.0 * (1.0 - alpha_bar_t))
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return np.tensordot(weights, stack, axes=(0, 0))


# Oracles for the in-place step kernel: the direct forms it replaced. Each
# returns new arrays and leaves its inputs alone.


def direct_ddim_step(x_t, eps_tilde, alpha_bar_t, alpha_bar_prev):
    """(x_prev, p_x0) of one deterministic update, both as new arrays."""
    ab_t = float(alpha_bar_t)
    ab_p = float(alpha_bar_prev)
    p_x0 = (x_t - (1.0 - ab_t) ** 0.5 * eps_tilde) / ab_t**0.5
    x_prev = ab_p**0.5 * p_x0 + (1.0 - ab_p) ** 0.5 * eps_tilde
    return x_prev, p_x0


def direct_cfg_combine(eps_uncond, eps_cond, omega):
    return eps_uncond + omega * (eps_cond - eps_uncond)


def direct_gaussian_eps(means, variance, x_t, ab):
    """GaussianPrior's prediction at level ``ab`` through a new x0_hat array,
    for one mean per channel."""
    mean = np.asarray(means, dtype=np.float64)[:, None, None]
    gain = np.sqrt(ab) * variance / (ab * variance + 1.0 - ab)
    x0_hat = mean + gain * (x_t - np.sqrt(ab) * mean)
    return (x_t - np.sqrt(ab) * x0_hat) / np.sqrt(1.0 - ab)


def direct_noise_refresh(p_x0, codec, target_height, target_width, alpha_bar_prev, eps):
    """One seed's boundary refresh as a (C, H, W) array: its own one-row codec
    batch, re-noised by itself, as the sampler refreshed seed by seed."""
    (resized,) = refresh_resize(codec, p_x0[None], target_height, target_width)
    ab = float(alpha_bar_prev)
    return ab**0.5 * resized + (1.0 - ab) ** 0.5 * eps


def direct_resize_bilinear(arr, target_height, target_width):
    """One (C, H, W) array's bilinear resample as a new array, in the two
    expressions ``resize_bilinear`` used before it acted on channel stacks."""
    y_lo, y_hi, fy = _axis_lerp_indices(arr.shape[1], target_height)
    x_lo, x_hi, fx = _axis_lerp_indices(arr.shape[2], target_width)
    rows = arr[:, y_lo, :] * (1.0 - fy)[None, :, None] + arr[:, y_hi, :] * fy[None, :, None]
    return rows[:, :, x_lo] * (1.0 - fx)[None, None, :] + rows[:, :, x_hi] * fx[None, None, :]


def direct_average_energy(x):
    """Each (C, H, W) latent's energy as the pairwise mean of a new batch of
    squares: the form ``average_energy`` used before it took one dot product
    per seed."""
    return np.mean(x * x, axis=(-3, -2, -1))


def read_only(values):
    """A read-only float64 copy of ``values``: the form a codec batch, a
    refresh's estimates and a prior's stack take."""
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def p_x0_mse_series(
    snapshots: list[tuple[int, np.ndarray]],
) -> list[list[tuple[int, float]]]:
    """Mean squared change between consecutive clean-signal snapshots.

    Each element of a segment is (step, mse) where ``step`` is the later
    snapshot of the pair. A shape change between consecutive snapshots (a
    refresh boundary) starts a new segment, so the result is a list of
    segments; a run at one resolution yields a single segment.
    """
    if len(snapshots) < 2:
        raise ValueError(f"need at least 2 snapshots, got {len(snapshots)}")
    segments: list[list[tuple[int, float]]] = []
    current: list[tuple[int, float]] = []
    for (_, prev), (step, cur) in zip(snapshots, snapshots[1:]):
        if cur.shape != prev.shape:
            if current:
                segments.append(current)
            current = []
            continue
        diff = cur - prev
        current.append((step, float(np.mean(diff * diff))))
    if current:
        segments.append(current)
    return segments


def monotonicity_stat(pairs: list[tuple[float, float]]) -> float:
    """Kendall rank correlation with tie correction (the tau-b form).

    ``pairs`` are (setting, response) points, e.g. (omega, mean energy).
    Returns +1.0 only for a strictly increasing response, -1.0 only for a
    strictly decreasing one; ties reduce the magnitude.
    """
    n = len(pairs)
    if n < 3 or len({x for x, _ in pairs}) < 3:
        raise ValueError("need at least 3 points with 3 distinct settings")
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pairs[j][0] - pairs[i][0]
            dy = pairs[j][1] - pairs[i][1]
            prod = dx * dy
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    n0 = n * (n - 1) // 2

    def tie_pairs(values) -> int:
        counts: dict[float, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return sum(c * (c - 1) // 2 for c in counts.values())

    n1 = tie_pairs(x for x, _ in pairs)
    n2 = tie_pairs(y for _, y in pairs)
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0:
        raise ValueError("all settings or all responses are tied")
    return (concordant - discordant) / denom


def codec_stub(tmp_path, body: str) -> str:
    """Write a codec stub script and return the command invoking it.

    Stubs use the standard library only, so the interpreter skips ``site``
    and a call costs little more than its start."""
    script = tmp_path / "stub_codec.py"
    script.write_text(textwrap.dedent(body), encoding="utf-8")
    return f"{sys.executable} -S {script}"


# granularity 2: nearest-neighbour upsampling, and its inverse by striding
BLOCK_CODEC = """\
    import struct, sys
    from array import array

    mode, src, dst = sys.argv[1:4]
    with open(src, "rb") as fh:
        blob = fh.read()
    c, h, w = struct.unpack_from("<3I", blob, 12)
    values = array("f", blob[24:])
    out = array("f")
    if mode == "decode":
        for row in range(c * h):
            wide = array("f", (v for v in values[row * w : (row + 1) * w] for _ in (0, 1)))
            out += wide + wide
        dims = (c, 2 * h, 2 * w)
    else:
        for row in range(0, c * h, 2):
            out += values[row * w : (row + 1) * w : 2]
        dims = (c, h // 2, w // 2)
    with open(dst, "wb") as fh:
        fh.write(b"RHRT" + struct.pack("<5I", 1, 3, *dims) + out.tobytes())
"""

# granularity 1: copies its input, except that batch index 1 (the codec
# names element i's input "<i>.in") fails at once while index 0 sleeps for
# five seconds and the others for 0.2 s; each copy that completes leaves a
# "done-<i>" marker in DIR
FAILS_ON_INDEX_1 = """\
    import os, shutil, sys, time

    DIR = {dir!r}
    src, dst = sys.argv[2:4]
    index = os.path.basename(src).split(".")[0]
    if index == "1":
        print("cannot code this grid", file=sys.stderr)
        sys.exit(3)
    time.sleep(5.0 if index == "0" else 0.2)
    shutil.copyfile(src, dst)
    open(os.path.join(DIR, "done-" + index), "w").close()
"""

# creates an empty file in DIR named after its own pid, then sleeps for a
# minute and writes no output
WRITES_PID_THEN_SLEEPS = """\
    import os, time

    open(os.path.join({dir!r}, str(os.getpid())), "x").close()
    time.sleep(60.0)
"""

# granularity 1: copies its input when CPU is in its affinity mask, and
# otherwise does as WRITES_PID_THEN_SLEEPS
SLEEPS_OFF_CPU = """\
    import os, shutil, sys, time

    if {cpu} in os.sched_getaffinity(0):
        shutil.copyfile(sys.argv[2], sys.argv[3])
    else:
        open(os.path.join({dir!r}, str(os.getpid())), "x").close()
        time.sleep(60.0)
"""

# granularity 1: copies its input after a pause, appending its own start and
# end times (the system-wide monotonic clock) to LOG
LOGGED_COPY = """\
    import shutil, sys, time

    start = time.monotonic()
    time.sleep(0.15)
    shutil.copyfile(sys.argv[2], sys.argv[3])
    with open({log!r}, "a") as fh:
        fh.write(f"{{start}} {{time.monotonic()}}\\n")
"""


def most_at_once(log) -> int:
    """The most ``LOGGED_COPY`` calls logged in ``log`` that ran at one instant."""
    spans = [tuple(map(float, line.split())) for line in log.read_text().splitlines()]
    # an end sorts before a start at the same instant
    events = sorted([(t0, 1) for t0, _ in spans] + [(t1, -1) for _, t1 in spans])
    running = peak = 0
    for _, delta in events:
        running += delta
        peak = max(peak, running)
    return peak


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py``, imported under its own name as ``python3
    bench/run.py`` imports it, with the bench directory on the path only
    while it loads. So ``bench/checks.py``'s ``from workloads import ...``
    resolves, and the bench's own tests get the same module objects."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
