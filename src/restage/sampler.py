"""Deterministic sampling runs over a staged-resolution plan.

One run owns a single latent trajectory. Each step s:

1. If s is a stage boundary, the latent is rebuilt for the new stage first
   (see below), and the step is recorded with its ``refreshed`` flag set.
2. The denoiser predicts both guidance branches at the current latent and
   they are combined with the stage's guidance scale omega.
3. One deterministic update produces the clean-signal estimate p_x0 and
   the next latent, using the step's noise level and its successor's (the
   trailing post-terminal level 1.0 makes the final update return p_x0).

Inside a step the latent, both predictions and the clean estimate are
plain float64 ndarrays. :class:`LatentGrid` appears only at the run's
edges: the initial noise, each boundary's resize or refresh, snapshots and
``final_p_x0``. Finiteness is screened once per step through the two
energies the trace records; only a non-finite energy triggers the
element-wise check, which fails the run with the step attached.

Boundary convention: the boundary belonging to stage i is the first step
OF stage i. The previous step's denoiser output (computed at the old
resolution) is consumed by the jump; the first denoiser call at the new
resolution happens at the boundary step itself. The recorded
``latent_energy`` of a row is the energy of the latent entering that step,
after any boundary action, so boundary rows report the rebuilt latent.

Variants:

* ``baseline``      - stage 0's resolution and omega for the whole run.
* ``rectified``     - full plan: at each boundary the previous clean
                      estimate is resized through the codec and re-noised
                      with fresh stage noise to the boundary step's level.
* ``latent-resize`` - the plan's stages and omegas, but each boundary
                      resizes the running latent in latent space directly;
                      nothing is re-noised.
* ``snr-corrected`` - single resolution at the plan's final stage with
                      stage 0's omega; every update uses noise levels
                      passed through the area-ratio correction with
                      gamma = (target area / base area)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import RESIZE_METHODS, refresh_resize
from .denoiser import UNCONDITIONAL, Condition, Denoiser, GaussianPrior, cfg_combine
from .errors import SamplerError, ShapeError
from .latent import (
    LatentGrid,
    SeededRng,
    average_energy,
    gaussian_noise,
    resize_bilinear,
    resize_nearest,
)
from .schedule import RefreshPlan, SamplerTimeline, Stage, snr_corrected_alpha_bar

__all__ = [
    "VARIANTS",
    "StepRecord",
    "RunResult",
    "ddim_step",
    "noise_refresh",
    "run",
    "AffineTrajectory",
    "affine_trajectory_oracle",
]

VARIANTS = ("baseline", "rectified", "latent-resize", "snr-corrected")


@dataclass(frozen=True)
class StepRecord:
    """One row of a run's trace."""

    step: int
    train_t: int
    omega: float
    latent_energy: float
    p_x0_energy: float
    refreshed: bool


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run exposes.

    ``p_x0_snapshots`` holds (step, grid) pairs for the steps that were
    requested, in step order.
    """

    variant: str
    final_p_x0: LatentGrid
    trace: tuple[StepRecord, ...]
    p_x0_snapshots: tuple[tuple[int, LatentGrid], ...]


def ddim_step(
    x_t: np.ndarray, eps_tilde: np.ndarray, alpha_bar_t: float, alpha_bar_prev: float
) -> tuple[np.ndarray, np.ndarray]:
    """One deterministic update on (C, H, W) arrays. Returns new arrays (x_prev, p_x0).

    The clean-signal estimate removes the predicted noise at the current
    level and the update re-mixes it at the next level:

        p_x0   = (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
        x_prev = sqrt(ab_prev) * p_x0 + sqrt(1 - ab_prev) * eps

    ab_prev = 1 collapses x_prev onto p_x0; ab_t = 0 is singular and
    rejected.
    """
    if x_t.shape != eps_tilde.shape:
        raise ShapeError(f"latent shape {x_t.shape} does not match prediction {eps_tilde.shape}")
    if alpha_bar_t == 0.0:
        raise ValueError("alpha_bar_t = 0 leaves no signal to recover; the update is singular")
    if not 0.0 < alpha_bar_t <= 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1], got {alpha_bar_t}")
    if not 0.0 < alpha_bar_prev <= 1.0:
        raise ValueError(f"alpha_bar_prev must lie in (0, 1], got {alpha_bar_prev}")
    ab_t = float(alpha_bar_t)
    ab_p = float(alpha_bar_prev)
    p_x0 = (x_t - (1.0 - ab_t) ** 0.5 * eps_tilde) / ab_t**0.5
    x_prev = ab_p**0.5 * p_x0 + (1.0 - ab_p) ** 0.5 * eps_tilde
    return x_prev, p_x0


def noise_refresh(
    p_x0: LatentGrid,
    codec,
    target_height: int,
    target_width: int,
    method: str,
    alpha_bar_prev: float,
    eps: LatentGrid,
) -> LatentGrid:
    """Rebuild the latent at a new resolution from a clean-signal estimate.

    The estimate is resized through the codec's decoded space and re-noised
    to the requested level with the supplied fresh noise:

        sqrt(ab_prev) * resized + sqrt(1 - ab_prev) * eps

    ``eps`` must already have the target shape. ab_prev = 1 (with zero
    noise) is allowed as a diagnostic and returns the resized estimate.
    """
    if not 0.0 < alpha_bar_prev <= 1.0:
        raise ValueError(f"alpha_bar_prev must lie in (0, 1], got {alpha_bar_prev}")
    resized = refresh_resize(codec, p_x0, target_height, target_width, method)
    if eps.shape != resized.shape:
        raise ShapeError(f"fresh noise shape {eps.shape} does not match target {resized.shape}")
    ab = float(alpha_bar_prev)
    return LatentGrid(ab**0.5 * resized.data + (1.0 - ab) ** 0.5 * eps.data)


def _effective_stages(variant: str, plan: RefreshPlan) -> tuple:
    if variant == "baseline":
        s0 = plan.stages[0]
        return (
            Stage(0, 0, plan.num_steps, s0.height, s0.width, s0.omega),
        )
    if variant == "snr-corrected":
        s0 = plan.stages[0]
        h, w = plan.target_resolution
        return (Stage(0, 0, plan.num_steps, h, w, s0.omega),)
    return plan.stages


def run(
    variant: str,
    plan: RefreshPlan,
    timeline: SamplerTimeline,
    denoiser: Denoiser,
    codec,
    condition: Condition,
    rng: SeededRng,
    snapshot_steps=None,
    resize_method: str = "bilinear",
    initial_noise: LatentGrid | None = None,
    check_reconstruction: bool = False,
) -> RunResult:
    """Execute one sampling run and return its result and trace.

    Args:
        variant: One of ``VARIANTS``.
        plan: Stage layout; must cover exactly the timeline's steps.
        timeline: Step-to-noise-level mapping.
        denoiser: Noise predictor queried twice per step (once per branch;
            the second call is skipped when the condition is unconditional).
        codec: Decode/encode pair used by rectified boundaries.
        condition: Conditioning for the guided branch.
        rng: Seeded stream bundle. The initial latent draws from stream
            ("init", 0); the boundary entering stage i draws from
            ("refresh", i), so each stage's noise is reproducible on its
            own.
        snapshot_steps: Iterable of step indices whose p_x0 to keep.
        resize_method: Resampling used at boundaries.
        initial_noise: Optional explicit starting latent (its shape must
            match the starting stage); drawn from rng when omitted.
        check_reconstruction: Re-assert the update identity
            x_t = sqrt(ab) * p_x0 + sqrt(1-ab) * eps at every step.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if resize_method not in RESIZE_METHODS:
        raise ValueError(f"unknown resize method {resize_method!r}, expected one of {RESIZE_METHODS}")
    if plan.num_steps != timeline.num_steps:
        raise ValueError(
            f"plan covers {plan.num_steps} steps but the timeline has {timeline.num_steps}"
        )
    stages = _effective_stages(variant, plan)
    wanted = frozenset(int(s) for s in snapshot_steps) if snapshot_steps is not None else frozenset()

    gamma = 1.0
    if variant == "snr-corrected":
        (bh, bw), (th, tw) = plan.base_resolution, plan.target_resolution
        gamma = float((th / bh) * (tw / bw)) ** 2

    def level(idx: int) -> float:
        ab = float(timeline.alpha_bar_at_step[idx])
        if variant == "snr-corrected":
            return snr_corrected_alpha_bar(ab, gamma)
        return ab

    stage_entry = {st.first_step: st for st in stages[1:]}
    first = stages[0]
    if initial_noise is None:
        x = gaussian_noise(denoiser.channels, first.height, first.width, rng.stream("init")).data
    else:
        if initial_noise.shape != (denoiser.channels, first.height, first.width):
            raise ShapeError(
                f"initial noise shape {initial_noise.shape} does not match the starting "
                f"stage ({denoiser.channels}, {first.height}, {first.width})"
            )
        x = initial_noise.data
    denoiser.prepare_resolution(first.height, first.width)

    trace: list[StepRecord] = []
    snapshots: list[tuple[int, LatentGrid]] = []
    p_x0: np.ndarray | None = None
    stage = first
    for step in range(timeline.num_steps):
        refreshed = False
        entered = stage_entry.get(step)
        if entered is not None:
            stage = entered
            denoiser.prepare_resolution(stage.height, stage.width)
            try:
                if variant == "rectified":
                    eps = gaussian_noise(
                        denoiser.channels, stage.height, stage.width, rng.stream("refresh", stage.index)
                    )
                    x = noise_refresh(
                        LatentGrid(p_x0), codec, stage.height, stage.width, resize_method,
                        level(step), eps,
                    ).data
                elif variant == "latent-resize":
                    if resize_method == "nearest":
                        x = resize_nearest(LatentGrid(x), stage.height, stage.width).data
                    else:
                        x = resize_bilinear(LatentGrid(x), stage.height, stage.width).data
            except (ValueError, RuntimeError) as exc:
                raise SamplerError(f"step {step}: {exc}", step=step) from exc
            refreshed = True
        try:
            eps_u = denoiser.predict_eps(x, step, UNCONDITIONAL)
            eps_c = eps_u if not condition.is_conditional else denoiser.predict_eps(x, step, condition)
            eps_tilde = cfg_combine(eps_u, eps_c, stage.omega)
            energy_in = average_energy(x)
            x_next, p_x0 = ddim_step(x, eps_tilde, level(step), level(step + 1))
        except (ValueError, RuntimeError) as exc:
            raise SamplerError(f"step {step}: {exc}", step=step) from exc
        p_x0_energy = average_energy(p_x0)
        # A non-finite prediction reaches p_x0, so a finite energy sum clears
        # the step; an infinite one may still be an overflow of finite values.
        if not math.isfinite(energy_in + p_x0_energy) and not (
            np.isfinite(x).all() and np.isfinite(p_x0).all()
        ):
            raise SamplerError(f"step {step}: latent grid contains non-finite values", step=step)
        if check_reconstruction:
            ab = level(step)
            rebuilt = ab**0.5 * p_x0 + (1.0 - ab) ** 0.5 * eps_tilde
            err = float(abs(rebuilt - x).max())
            scale = max(1.0, float(abs(x).max()))
            if err > 1e-9 * scale:
                raise SamplerError(
                    f"step {step}: reconstruction identity violated by {err:.3e}", step=step
                )
        trace.append(
            StepRecord(
                step=step,
                train_t=int(timeline.step_to_train_t[step]),
                omega=stage.omega,
                latent_energy=energy_in,
                p_x0_energy=p_x0_energy,
                refreshed=refreshed,
            )
        )
        if step in wanted:
            snapshots.append((step, LatentGrid(p_x0)))
        x = x_next

    return RunResult(
        variant=variant,
        final_p_x0=LatentGrid(p_x0),
        trace=tuple(trace),
        p_x0_snapshots=tuple(snapshots),
    )


@dataclass(frozen=True)
class AffineTrajectory:
    """A whole run collapsed to final_p_x0 = noise_gain * x_T + mean_gain * mean."""

    noise_gain: float
    mean_gain: float

    def apply(self, initial_noise: LatentGrid, mean: LatentGrid) -> LatentGrid:
        if initial_noise.shape != mean.shape:
            raise ShapeError(
                f"noise shape {initial_noise.shape} does not match mean shape {mean.shape}"
            )
        return LatentGrid(self.noise_gain * initial_noise.data + self.mean_gain * mean.data)


def affine_trajectory_oracle(
    plan: RefreshPlan, timeline: SamplerTimeline, prior: GaussianPrior
) -> AffineTrajectory:
    """Closed-form description of a single-resolution run under a Gaussian prior.

    Because the Gaussian posterior mean is affine in the latent and both
    guidance branches coincide (so omega cancels), every step is the scalar
    affine map

        x' = a * x + b * mean,
        a  = sqrt(ab') * g + sqrt(1 - ab') * (1 - sqrt(ab) * g) / sqrt(1 - ab)
        b  = sqrt(ab') * (1 - g * sqrt(ab))
             - sqrt(1 - ab') * sqrt(ab) * (1 - sqrt(ab) * g) / sqrt(1 - ab)

    with g = sqrt(ab) * v / (ab * v + 1 - ab), and the run is their
    composition. The composition is computed directly from these formulas,
    independently of the sampler's step code, which is what makes it usable
    as an oracle. The final step (ab' = 1) lands on the clean estimate, so
    the composed map describes final_p_x0.
    """
    if len(plan.stages) != 1:
        raise ValueError("the trajectory oracle covers single-resolution plans only")
    if not isinstance(prior, GaussianPrior):
        raise TypeError("the trajectory oracle requires a GaussianPrior denoiser")
    v = prior.variance
    a_total, b_total = 1.0, 0.0
    for step in range(timeline.num_steps):
        ab = float(timeline.alpha_bar_at_step[step])
        ab_p = float(timeline.alpha_bar_at_step[step + 1])
        g = ab**0.5 * v / (ab * v + 1.0 - ab)
        resid = (1.0 - ab**0.5 * g) / (1.0 - ab) ** 0.5
        a = ab_p**0.5 * g + (1.0 - ab_p) ** 0.5 * resid
        b = ab_p**0.5 * (1.0 - g * ab**0.5) - (1.0 - ab_p) ** 0.5 * ab**0.5 * resid
        a_total = a * a_total
        b_total = a * b_total + b
    return AffineTrajectory(noise_gain=a_total, mean_gain=b_total)
