"""Noise schedules, sampler timelines, and staged-resolution planning.

This module owns everything that is decided before a single latent is
touched: how much signal survives at each training timestep, which training
timesteps a short sampling run visits, at which sampling steps the run jumps
to a higher resolution, and which guidance scale each stage uses.

Conventions
-----------
* ``alpha_bar`` is the retained-signal fraction: the forward process at
  training timestep t is x_t = sqrt(alpha_bar[t]) * x0 +
  sqrt(1 - alpha_bar[t]) * eps.
* Sampling steps count forward 0, 1, ..., num_steps - 1 while the training
  timestep they visit counts down; step 0 is the noisiest.
* ``alpha_bar_at_step`` carries one extra trailing entry equal to exactly
  1.0, the post-terminal level used by the last step's update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PlanError

__all__ = [
    "NoiseSchedule",
    "SamplerTimeline",
    "LadderConfig",
    "Stage",
    "RefreshPlan",
    "BETA_START",
    "BETA_END",
    "TRAIN_STEPS",
    "LADDER_PRESETS",
    "build_schedule",
    "build_timeline",
    "select_refresh_steps",
    "select_omegas",
    "build_plan",
    "ladder_preset",
    "snr_corrected_alpha_bar",
    "snr_rewritten_step_coefficients",
    "ddim_step_coefficients",
    "snr_energy_coefficient",
]

# The training schedule: the scaled-linear ramp of the large latent-diffusion
# checkpoints this laboratory mimics at desk scale. A training-free sampler
# inherits its checkpoint's schedule, so it is a constant, not an option.
BETA_START = 0.00085
BETA_END = 0.012
TRAIN_STEPS = 1000


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-training-timestep noise levels, one entry per training timestep.

    Attributes:
        betas: Per-timestep variance increments, shape (train_steps,).
        alpha_bar: Cumulative product of (1 - beta), shape (train_steps,);
            strictly decreasing, all values in (0, 1).
    """

    betas: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SamplerTimeline:
    """Mapping from sampling steps to training timesteps.

    Attributes:
        num_steps: Number of sampling steps.
        step_to_train_t: Training timestep visited by each step, strictly
            decreasing, shape (num_steps,).
        alpha_bar_at_step: Noise level at each step plus one post-terminal
            entry equal to exactly 1.0, shape (num_steps + 1,); strictly
            increasing along the sampling direction.
    """

    num_steps: int
    step_to_train_t: np.ndarray = field(repr=False)
    alpha_bar_at_step: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LadderConfig:
    """Hyperparameters of the staged-resolution ladder.

    ``t_min``/``t_max`` bound the sampling-step window inside which refresh
    boundaries are placed (``t_max`` is the total step count of the run the
    ladder is planned for). ``m_t`` and ``m_omega`` shape how boundary steps
    and guidance scales interpolate between their endpoints; both must be
    strictly positive.

    ``resolutions`` lists one (height, width) per stage in latent units,
    non-decreasing in both dimensions.
    """

    t_min: int
    t_max: int
    n_stages: int
    m_t: float
    omega_min: float
    omega_max: float
    m_omega: float
    resolutions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_stages < 1:
            raise ConfigError(f"ladder.n_stages: must be >= 1, got {self.n_stages}")
        if self.t_min < 0:
            raise ConfigError(f"ladder.t_min: must be >= 0, got {self.t_min}")
        if self.t_min >= self.t_max:
            raise ConfigError(
                f"ladder.t_min: must be strictly below t_max, got {self.t_min} >= {self.t_max}"
            )
        if not self.m_t > 0:
            raise ConfigError(f"ladder.m_t: must be > 0, got {self.m_t}")
        if not self.m_omega > 0:
            raise ConfigError(f"ladder.m_omega: must be > 0, got {self.m_omega}")
        if self.omega_min > self.omega_max:
            raise ConfigError(
                f"ladder.omega_min: must be <= omega_max, got {self.omega_min} > {self.omega_max}"
            )
        if len(self.resolutions) != self.n_stages:
            raise ConfigError(
                f"ladder.resolutions: need one (height, width) per stage, "
                f"got {len(self.resolutions)} for {self.n_stages} stages"
            )
        for i, (h, w) in enumerate(self.resolutions):
            if h < 1 or w < 1:
                raise ConfigError(f"ladder.resolutions: stage {i} has non-positive dims ({h}, {w})")
        for i in range(1, self.n_stages):
            ph, pw = self.resolutions[i - 1]
            h, w = self.resolutions[i]
            if h < ph or w < pw:
                raise ConfigError(
                    f"ladder.resolutions: stage {i} ({h}, {w}) shrinks below stage "
                    f"{i - 1} ({ph}, {pw}); resolutions must be non-decreasing"
                )


@dataclass(frozen=True)
class Stage:
    """One contiguous run of sampling steps at a fixed resolution and omega.

    ``first_step`` is inclusive, ``last_step`` exclusive.
    """

    index: int
    first_step: int
    last_step: int
    height: int
    width: int
    omega: float


@dataclass(frozen=True)
class RefreshPlan:
    """Stages tiling [0, num_steps) plus the boundary steps between them."""

    stages: tuple[Stage, ...]
    refresh_steps: tuple[int, ...]

    @property
    def num_steps(self) -> int:
        return self.stages[-1].last_step

    @property
    def base_resolution(self) -> tuple[int, int]:
        return (self.stages[0].height, self.stages[0].width)

    @property
    def target_resolution(self) -> tuple[int, int]:
        return (self.stages[-1].height, self.stages[-1].width)


def build_schedule() -> NoiseSchedule:
    """The training schedule: sqrt(beta) runs linearly from sqrt(BETA_START) to
    sqrt(BETA_END) over TRAIN_STEPS timesteps and is squared, which front-loads
    small increments the way the large pretrained checkpoints do."""
    betas = np.linspace(math.sqrt(BETA_START), math.sqrt(BETA_END), TRAIN_STEPS, dtype=np.float64) ** 2
    alpha_bar = np.cumprod(1.0 - betas)
    for arr in (betas, alpha_bar):
        arr.setflags(write=False)
    return NoiseSchedule(betas=betas, alpha_bar=alpha_bar)


def build_timeline(schedule: NoiseSchedule, num_steps: int) -> SamplerTimeline:
    """Select which training timesteps a ``num_steps``-step run visits.

    Step s maps to round((num_steps - 1 - s) * (train_steps - 1) /
    (num_steps - 1)) with ties rounding up, so step 0 lands on the last
    training timestep and the final step lands on timestep 0. A run of one
    step visits the last training timestep only.
    """
    train_steps = len(schedule.alpha_bar)
    if num_steps < 1:
        raise ConfigError(f"schedule.num_steps: must be >= 1, got {num_steps}")
    if num_steps > train_steps:
        raise ConfigError(
            f"schedule.num_steps: must be <= train_steps, got {num_steps} > {train_steps}"
        )
    if num_steps == 1:
        train_ts = np.array([train_steps - 1], dtype=np.int64)
    else:
        span = (train_steps - 1) / (num_steps - 1)
        raw = (num_steps - 1 - np.arange(num_steps, dtype=np.float64)) * span
        train_ts = np.floor(raw + 0.5).astype(np.int64)
    levels = np.empty(num_steps + 1, dtype=np.float64)
    levels[:num_steps] = schedule.alpha_bar[train_ts]
    levels[num_steps] = 1.0
    for arr in (train_ts, levels):
        arr.setflags(write=False)
    return SamplerTimeline(num_steps=int(num_steps), step_to_train_t=train_ts, alpha_bar_at_step=levels)


def select_refresh_steps(config: LadderConfig) -> list[int]:
    """Boundary steps at which the run jumps to the next stage.

    Boundary i (for stages i = 1 .. n_stages - 1) sits at
    floor((t_max - t_min) * ((i - 1) / n_stages) ** m_t + t_min), so the
    first boundary is always t_min and later ones approach t_max from below.
    """
    steps = []
    span = config.t_max - config.t_min
    for i in range(1, config.n_stages):
        frac = (i - 1) / config.n_stages
        steps.append(int(math.floor(span * frac**config.m_t + config.t_min)))
    return steps


def select_omegas(config: LadderConfig) -> list[float]:
    """Per-stage guidance scales.

    Stage i (for i = 0 .. n_stages - 1) uses
    (omega_max - omega_min) * (i / (n_stages - 1)) ** m_omega + omega_min;
    a single-stage ladder uses omega_min alone.
    """
    if config.n_stages == 1:
        return [float(config.omega_min)]
    span = config.omega_max - config.omega_min
    return [
        span * (i / (config.n_stages - 1)) ** config.m_omega + config.omega_min
        for i in range(config.n_stages)
    ]


def build_plan(config: LadderConfig, timeline: SamplerTimeline) -> RefreshPlan:
    """Tile the timeline into stages separated by the ladder's boundaries.

    Raises:
        ConfigError: if the ladder window extends past the run length.
        PlanError: if two boundaries collide (the floor in
            :func:`select_refresh_steps` can map distinct stages to the same
            step) or a boundary falls outside (0, num_steps), either of
            which would create an empty stage.
    """
    if config.t_max > timeline.num_steps:
        raise ConfigError(
            f"ladder.t_max: must be <= the run's step count, "
            f"got {config.t_max} > {timeline.num_steps}"
        )
    boundaries = select_refresh_steps(config)
    for i in range(1, len(boundaries)):
        if boundaries[i] <= boundaries[i - 1]:
            raise PlanError(
                f"stages {i} and {i + 1} collide at boundary step {boundaries[i]}; "
                f"adjust t_min/t_max/m_t so every stage keeps at least one step"
            )
    for i, step in enumerate(boundaries):
        if not 0 < step < timeline.num_steps:
            raise PlanError(
                f"boundary for stage {i + 1} at step {step} falls outside "
                f"(0, {timeline.num_steps})"
            )
    omegas = select_omegas(config)
    edges = [0, *boundaries, timeline.num_steps]
    stages = tuple(
        Stage(
            index=i,
            first_step=edges[i],
            last_step=edges[i + 1],
            height=config.resolutions[i][0],
            width=config.resolutions[i][1],
            omega=float(omegas[i]),
        )
        for i in range(config.n_stages)
    )
    return RefreshPlan(stages=stages, refresh_steps=tuple(boundaries))


# Published ladder settings for the two reference generation scales. The
# stage resolutions are not part of a preset; callers supply them for
# whatever grid size the experiment runs at.
LADDER_PRESETS: dict[str, dict] = {
    "paper-2048": dict(t_min=40, t_max=50, n_stages=2, m_t=1.0, omega_min=5.0, omega_max=30.0, m_omega=1.0),
    "paper-4096": dict(t_min=40, t_max=50, n_stages=3, m_t=0.5, omega_min=5.0, omega_max=50.0, m_omega=0.5),
}


def ladder_preset(name: str, resolutions: tuple[tuple[int, int], ...]) -> LadderConfig:
    """Instantiate a named preset at explicit stage resolutions."""
    if name not in LADDER_PRESETS:
        raise ConfigError(
            f"ladder.preset: unknown preset {name!r}, expected one of {sorted(LADDER_PRESETS)}"
        )
    return LadderConfig(resolutions=tuple(resolutions), **LADDER_PRESETS[name])


def snr_corrected_alpha_bar(alpha_bar_t: float, gamma: float) -> float:
    """Noise level adjusted for sampling at gamma times the trained pixel count.

    Upsampling a latent by a linear factor per side multiplies the pixel
    count, and averaging over the larger support raises the effective
    signal-to-noise ratio; dividing the retained-signal odds by
    gamma = (area ratio)^2 compensates:

        alpha_bar' = alpha_bar / (gamma - (gamma - 1) * alpha_bar)

    Defined for alpha_bar_t in [0, 1] and gamma >= 1. gamma = 1 is the
    identity; the endpoints 0 and 1 are fixed points for every gamma.
    """
    return alpha_bar_t / (gamma - (gamma - 1.0) * alpha_bar_t)


def ddim_step_coefficients(alpha_bar_t: float, alpha_bar_prev: float) -> tuple[float, float]:
    """Coefficients (on x_t, on eps) of one deterministic update.

    The update x_prev = sqrt(ab_prev) * p_x0 + sqrt(1 - ab_prev) * eps with
    p_x0 = (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t) regrouped as
    x_prev = a * x_t + b * eps. Both levels lie in (0, 1].
    """
    a = math.sqrt(alpha_bar_prev / alpha_bar_t)
    b = math.sqrt(1.0 - alpha_bar_prev) - math.sqrt(alpha_bar_prev * (1.0 - alpha_bar_t) / alpha_bar_t)
    return a, b


def snr_rewritten_step_coefficients(
    alpha_bar_t: float, alpha_bar_prev: float, gamma: float
) -> tuple[float, float]:
    """The corrected update's coefficients written in uncorrected levels.

    Substituting :func:`snr_corrected_alpha_bar` into the two-coefficient
    update and simplifying yields

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
