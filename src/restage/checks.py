"""The property and oracle checks, each defined once.

``restage verify`` runs all of them in order, and acceptance criteria 01-04
call the same functions, so the command and the release criteria cannot
drift apart. Each check returns a :class:`Check` whose ``detail`` carries
the measured figures; ``value`` holds the one a test pins, where one does.
The closed forms only the checks use live here too, so the sampling
commands never load them: the step coefficients behind the SNR checks and
the affine trajectory oracle behind ``oracle-affine``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import schedule as sched
from .codec import IdentityCodec
from .denoiser import GaussianPrior
from .latent import SeededRng, gaussian_noise
from .sampler import noise_refresh, run

__all__ = [
    "Check", "run_all", "schedule_monotonic", "timeline_endpoints", "ladder_presets",
    "snr_identity", "snr_energy_range", "snr_near_unity", "oracle_affine", "refresh_distribution",
    "z_test_mean_var", "ddim_step_coefficients", "affine_trajectory_oracle",
    "snr_rewritten_step_coefficients", "snr_energy_coefficient",
]


class Check(NamedTuple):
    """Outcome of one check: its name, whether it held, and what was measured.

    ``value`` is the bounded figure, for the checks whose tests pin one.
    """

    name: str
    ok: bool
    detail: str
    value: float | None = None


def _timeline():
    return sched.build_timeline(sched.build_schedule(), 50)


def schedule_monotonic(corrupt: bool = False) -> Check:
    """The default schedule's alpha_bar falls strictly inside (0, 1).

    ``corrupt`` lifts one mid-schedule entry above its predecessor: the
    negative control behind ``restage verify --corrupt schedule``.
    """
    schedule = sched.build_schedule()
    alpha_bar = schedule.alpha_bar.copy()
    if corrupt:
        alpha_bar[len(alpha_bar) // 2] = alpha_bar[len(alpha_bar) // 2 - 1] * 1.5
    ok = (
        bool(np.all(np.diff(alpha_bar) < 0))
        and bool(np.all((alpha_bar > 0) & (alpha_bar < 1)))
        and alpha_bar[0] == 1.0 - schedule.betas[0]
    )
    detail = f"alpha_bar strictly decreasing in (0, 1), first entry {float(alpha_bar[0]):.9g}"
    return Check("schedule-monotonic", ok, detail)


def timeline_endpoints() -> Check:
    """A 50-step timeline spans the whole schedule and ends at level 1."""
    schedule = sched.build_schedule()
    timeline = sched.build_timeline(schedule, 50)
    ok = (
        int(timeline.step_to_train_t[0]) == len(schedule.alpha_bar) - 1
        and int(timeline.step_to_train_t[-1]) == 0
        and float(timeline.alpha_bar_at_step[-1]) == 1.0
        and bool(np.all(np.diff(timeline.alpha_bar_at_step) > 0))
    )
    return Check("timeline-endpoints", ok, "50 steps span the full schedule, post-terminal 1.0")


def ladder_presets() -> Check:
    """Both presets give their boundaries, exact end scales and the 4096 middle scale to 1e-9."""
    timeline = _timeline()
    two = sched.build_plan(sched.ladder_preset("paper-2048", ((16, 16), (32, 32))), timeline)
    res3 = ((16, 16), (24, 24), (32, 32))
    three = sched.build_plan(sched.ladder_preset("paper-4096", res3), timeline)
    ok = (
        two.refresh_steps == (40,)
        and three.refresh_steps == (40, 45)
        and [s.omega for s in two.stages] == [5.0, 30.0]
        and len(three.stages) == 3
        and [three.stages[0].omega, three.stages[2].omega] == [5.0, 50.0]
        and abs(three.stages[1].omega - 36.81980515339464) < 1e-9
    )
    return Check(
        "ladder-presets",
        ok,
        f"boundaries {list(two.refresh_steps)} / {list(three.refresh_steps)}, "
        f"scales {[s.omega for s in two.stages]} / {[round(s.omega, 7) for s in three.stages]}",
        three.stages[1].omega,
    )


def ddim_step_coefficients(alpha_bar_t: float, alpha_bar_prev: float) -> tuple[float, float]:
    """Coefficients (on x_t, on eps) of one deterministic update.

    The update x_prev = sqrt(ab_prev) * p_x0 + sqrt(1 - ab_prev) * eps with
    p_x0 = (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t) regrouped as
    x_prev = a * x_t + b * eps. Both levels lie in (0, 1].
    """
    a = math.sqrt(alpha_bar_prev / alpha_bar_t)
    b = math.sqrt(1.0 - alpha_bar_prev) - math.sqrt(alpha_bar_prev * (1.0 - alpha_bar_t) / alpha_bar_t)
    return a, b


def affine_trajectory_oracle(plan: sched.RefreshPlan, variance: float) -> tuple[float, float]:
    """Gains (noise_gain, mean_gain) of a one-stage run over ``plan``'s timeline
    under a Gaussian prior.

    Under N(mean, v * I), v >= 0, the posterior mean is affine in the latent
    and omega cancels (both branches coincide), so each step is the affine map

        x' = a * x + b * mean,
        a  = sqrt(ab') * g + sqrt(1 - ab') * (1 - sqrt(ab) * g) / sqrt(1 - ab)
        b  = sqrt(ab') * (1 - g * sqrt(ab))
             - sqrt(1 - ab') * sqrt(ab) * (1 - sqrt(ab) * g) / sqrt(1 - ab)

    with g = sqrt(ab) * v / (ab * v + 1 - ab). Their composition, computed
    apart from the sampler's step code, is the oracle: as the last step
    (ab' = 1) lands on the clean estimate, final_p_x0 = noise_gain * x_T +
    mean_gain * mean. At v = 0 the prior is a point; the gains are (0.0, 1.0).
    """
    if len(plan.stages) != 1:
        raise ValueError("the trajectory oracle covers single-resolution plans only")
    a_total, b_total = 1.0, 0.0
    levels = plan.timeline.alpha_bar_at_step
    for step in range(plan.num_steps):
        ab, ab_p = float(levels[step]), float(levels[step + 1])
        g = ab**0.5 * variance / (ab * variance + 1.0 - ab)
        resid = (1.0 - ab**0.5 * g) / (1.0 - ab) ** 0.5
        a = ab_p**0.5 * g + (1.0 - ab_p) ** 0.5 * resid
        b = ab_p**0.5 * (1.0 - g * ab**0.5) - (1.0 - ab_p) ** 0.5 * ab**0.5 * resid
        a_total = a * a_total
        b_total = a * b_total + b
    return a_total, b_total


def snr_rewritten_step_coefficients(
    alpha_bar_t: float, alpha_bar_prev: float, gamma: float
) -> tuple[float, float]:
    """The corrected update's coefficients written in uncorrected levels.

    Substituting :func:`restage.schedule.snr_corrected_alpha_bar` into the
    two-coefficient update and simplifying yields

        on x_t: sqrt((gamma - (gamma-1)*ab_t) / (gamma - (gamma-1)*ab_prev))
                * sqrt(ab_prev / ab_t)
        on eps: sqrt(gamma / (gamma - (gamma-1)*ab_prev))
                * (sqrt(1 - ab_prev) - sqrt(ab_prev) * sqrt(1 - ab_t) / sqrt(ab_t))

    which exposes the correction as two bounded gain factors on the plain
    update. Both levels lie in (0, 1] and gamma >= 1.
    """
    d_t = gamma - (gamma - 1.0) * alpha_bar_t
    d_prev = gamma - (gamma - 1.0) * alpha_bar_prev
    a = math.sqrt(d_t / d_prev) * math.sqrt(alpha_bar_prev / alpha_bar_t)
    b = math.sqrt(gamma / d_prev) * (
        math.sqrt(1.0 - alpha_bar_prev)
        - math.sqrt(alpha_bar_prev) * math.sqrt(1.0 - alpha_bar_t) / math.sqrt(alpha_bar_t)
    )
    return a, b


def snr_energy_coefficient(alpha_bar_prev: float, gamma: float) -> float:
    """Gain gamma / (gamma - (gamma - 1) * ab_prev) on the injected noise term.

    Defined for gamma >= 1, and lies in [1, gamma] for ab_prev in [0, 1]:
    the correction never shrinks the noise term and never amplifies it
    beyond gamma.
    """
    return gamma / (gamma - (gamma - 1.0) * alpha_bar_prev)


def _snr_triples():
    """1000 (lo, hi, gamma) triples: ordered levels in (0, 1), gamma in [1, 16)."""
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        lo, hi = np.sort(rng.uniform(1e-4, 0.9999, size=2))
        yield float(lo), float(hi), float(rng.uniform(1.0, 16.0))


def snr_identity() -> Check:
    """The rewritten corrected update equals the plain update at corrected levels."""
    worst = 0.0
    for lo, hi, gamma in _snr_triples():
        direct = ddim_step_coefficients(
            sched.snr_corrected_alpha_bar(lo, gamma), sched.snr_corrected_alpha_bar(hi, gamma)
        )
        rewritten = snr_rewritten_step_coefficients(lo, hi, gamma)
        # relative error of the affine step as a whole; the eps coefficient
        # alone can cancel to ~0 and has no meaningful own-scale
        scale = max(*(abs(c) for c in direct + rewritten), 1e-300)
        worst = max(worst, max(abs(d - r) for d, r in zip(direct, rewritten)) / scale)
    detail = f"max relative error {worst:.3e} over 1000 triples"
    return Check("snr-identity", worst < 1e-12, detail, worst)


def snr_energy_range() -> Check:
    """The corrected update's noise gain stays within [1, gamma]."""
    ok = all(
        1.0 - 1e-12 <= snr_energy_coefficient(hi, gamma) <= gamma + 1e-12
        for _, hi, gamma in _snr_triples()
    )
    return Check("snr-energy-range", ok, f"noise gain within [1, gamma]: {ok}")


def snr_near_unity() -> Check:
    """At gamma 16 the per-step correction gain on the latent stays within 0.2 of 1."""
    timeline = _timeline()
    gamma = 16.0
    dev = 0.0
    for s in range(timeline.num_steps):
        ab_t = float(timeline.alpha_bar_at_step[s])
        ab_p = float(timeline.alpha_bar_at_step[s + 1])
        factor = np.sqrt((gamma - (gamma - 1) * ab_t) / (gamma - (gamma - 1) * ab_p))
        dev = max(dev, abs(factor - 1.0))
    return Check("snr-near-unity", dev < 0.2, f"max |gain - 1| = {dev:.9g} at gamma 16", dev)


def oracle_affine() -> Check:
    """Runs match the affine oracle, and unit-gamma snr-corrected runs equal baseline bitwise."""
    ladder = sched.LadderConfig(
        t_min=40, t_max=50, n_stages=1, m_t=1.0, omega_min=1.0, omega_max=1.0,
        m_omega=1.0, resolutions=((8, 8),),
    )
    plan = sched.build_plan(ladder, _timeline())
    prior = GaussianPrior([0.4, 0.4], 1.3)
    codec = IdentityCodec()
    noise_gain, mean_gain = affine_trajectory_oracle(plan, prior.variance)
    rngs = [SeededRng(9000 + k) for k in range(100)]
    worst = 0.0
    for rng, got in zip(rngs, run("baseline", plan, prior, codec, None, rngs)):
        noise = gaussian_noise(2, 8, 8, rng.stream("init"))
        want = noise_gain * noise + mean_gain * prior.mean
        denom = max(float(np.abs(want).max()), 1e-12)
        worst = max(worst, float(np.abs(got.final_p_x0 - want).max()) / denom)

    (base,) = run("baseline", plan, prior, codec, None, [SeededRng(55)])
    (corrected,) = run("snr-corrected", plan, prior, codec, None, [SeededRng(55)])
    identical = bool(
        np.array_equal(base.final_p_x0, corrected.final_p_x0)
        and base.trace == corrected.trace
    )
    return Check(
        "oracle-affine",
        worst < 1e-9 and identical,
        f"max relative error {worst:.3e} over 100 noises, "
        f"unit-gamma correction bit-identical: {identical}",
    )


def z_test_mean_var(
    samples: np.ndarray, expected_mean: float, expected_var: float
) -> tuple[float, float]:
    """Location z-score and variance ratio of a sample against a reference.

    Returns (z_mean, var_ratio) with
    z_mean = (sample_mean - expected_mean) / sqrt(expected_var / n) and
    var_ratio = unbiased sample variance / expected_var. Requires at least
    10^4 samples so the 4-sigma conventions used by the checks are meaningful.
    """
    data = np.asarray(samples, dtype=np.float64).ravel()
    if data.size < 10_000:
        raise ValueError(f"need at least 10000 samples, got {data.size}")
    if not expected_var > 0:
        raise ValueError(f"expected variance must be positive, got {expected_var}")
    z = (float(data.mean()) - expected_mean) / math.sqrt(expected_var / data.size)
    ratio = float(data.var(ddof=1)) / expected_var
    return z, ratio


def refresh_distribution() -> Check:
    """A same-size refresh adds noise of mean 0 and variance 1 - ab_prev."""
    clean = np.random.default_rng(7).normal(0.0, 1.0, size=(1, 4, 180, 180))
    clean.setflags(write=False)  # a codec's input is read-only
    level = 0.82
    eps = gaussian_noise(4, 180, 180, SeededRng(123).stream("refresh", 1))
    # same size, identity codec: the resize inside is a no-op, so the output
    # must be exactly sqrt(level) * clean + sqrt(1 - level) * eps
    (refreshed,) = noise_refresh(clean, IdentityCodec(), 180, 180, level, [eps])
    residual = refreshed - np.sqrt(level) * clean[0]
    z, ratio = z_test_mean_var(residual, 0.0, 1.0 - level)
    return Check(
        "refresh-distribution",
        abs(z) < 4.0 and 0.95 <= ratio <= 1.05,
        f"z {z:+.2f}, variance ratio {ratio:.4f} over {residual.size} elements",
    )


def run_all(corrupt_schedule: bool = False) -> list[Check]:
    """Every check, in the order ``restage verify`` prints them."""
    rest = (timeline_endpoints, ladder_presets, snr_identity, snr_energy_range,
            snr_near_unity, oracle_affine, refresh_distribution)
    return [schedule_monotonic(corrupt_schedule)] + [check() for check in rest]
