"""Deterministic sampling runs over a staged-resolution plan.

One call runs B seeds, each its own latent trajectory, as one (B, C, H, W)
array; ``restage sample`` makes one call per capped batch of seeds, each in
a worker process (``docs/DECISIONS.md`` entry 21). Each step s:

1. If s is a stage boundary, each seed's latent is rebuilt for the new stage
   first (see below), and the step is recorded with its ``refreshed`` flag set.
2. The denoiser predicts both guidance branches at the current latents and
   the step's noise level, and they are combined with the stage's guidance
   scale omega.
3. One deterministic update produces the clean-signal estimates p_x0 and
   the next latents, using the step's noise level and its successor's (the
   trailing post-terminal level 1.0 makes the final update return p_x0).

A plan carries the timeline it tiles. ``run`` alone reads levels from it,
and hands each step's to the boundary refresh and both denoiser branches,
and its variant's corrected levels to the update. The kernels it calls trust
the levels and shapes it passes and check neither: the timeline was checked
when built, each latent is drawn at its stage's size from the seeds' streams,
and the energy screen fails a bad value at its step.

Inside a step the latents, both predictions and the clean estimates are
plain float64 ndarrays, one row per seed; every step function acts row by
row, and each seed draws its noise from its own :class:`SeededRng`.
A stage's latents and predictions live in buffers allocated when the stage
starts: the predictions, the guidance combine and the update write into
them in place, so the only batch-sized array a step allocates is its clean
estimate p_x0. That estimate is read-only once computed. A stage boundary
acts on the whole batch too: the codec, the resize and the refresh take
(B, C, H, W) arrays. ``run`` gives plain arrays: each step's read-only
(B, C, H, W) p_x0 goes to its ``on_step`` callback, and ``final_p_x0`` is
a read-only (C, H, W) row of the last, all valid after the run. Every
latent a run starts from is drawn from its seeds' streams as a plain array;
a latent-resize boundary wraps the batch in a bare :class:`LatentGrid`
holder only to resize it. Finiteness is screened once per step through the
two energies the trace records; only a non-finite energy triggers the
element-wise check of that seed's p_x0, which fails the run naming the
step and the seed. The energies are observers: each is one BLAS dot
product per seed, and only the trace and that screen read them, never a
tensor (``docs/DECISIONS.md`` entry 20).

Runs that share steps can share their computation. A caller passes the
same ``shared`` store, a plain dict it owns, to each of them. A run with a
store saves its state (the latent, the last estimate and the energies so
far) at each of its plan's refresh steps and at its end. A later run
resumes from the longest saved state whose key matches its own, so it
skips the steps they share. The key holds what the run reads: the objects
it calls (the denoiser, the codec and each stream bundle, in order) by
identity, the label and, step by step, the two noise levels, the stage's
index and size, the boundary action, gamma, and omega when guided. The
steps a resumed run does take are the ones it would take alone, so its
result is bitwise its standalone result; its trace records its own omega
(``docs/DECISIONS.md`` entry 19).

Boundary convention: the boundary belonging to stage i is the first step
OF stage i. The previous step's denoiser output (computed at the old
resolution) is consumed by the jump; the first denoiser call at the new
resolution happens at the boundary step itself. The recorded
``latent_energy`` of a row is the energy of the latent entering that step,
after any boundary action, so boundary rows report the rebuilt latent.

Variants, decided here alone (``docs/DECISIONS.md`` entry 12):

    variant            stages                                   gamma
    baseline           one, at stage 0's size and omega         1
    native-baseline    one, at the target size, stage 0's omega 1
    snr-corrected      one, at the target size, stage 0's omega (target / base area)^2
    rectified-no-rect  the plan's, each at stage 0's omega      1
    rectified          the plan's                               1
    latent-resize      the plan's                               1

Every update reads its two levels through the area-ratio correction at the
variant's gamma, which at gamma 1 returns them unchanged, bit for bit. A
``rectified`` or ``rectified-no-rect`` boundary resizes the previous clean
estimate through the codec and re-noises it with fresh stage noise to the
boundary step's level; a ``latent-resize`` boundary resizes the running
latent in latent space directly and re-noises nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .codec import refresh_resize
from .denoiser import Denoiser, cfg_combine
from .errors import CodecError, SamplerError
from .latent import LatentGrid, SeededRng, average_energy, gaussian_noise, resize_bilinear
from .schedule import RefreshPlan, Stage, snr_corrected_alpha_bar

__all__ = [
    "VARIANTS",
    "StepRecord",
    "RunResult",
    "ddim_step",
    "noise_refresh",
    "run",
]

VARIANTS = (
    "baseline", "rectified", "latent-resize", "snr-corrected", "native-baseline",
    "rectified-no-rect",
)


class StepRecord(NamedTuple):
    """One row of a run's trace."""

    step: int
    train_t: int
    omega: float
    latent_energy: float
    p_x0_energy: float
    refreshed: bool


class RunResult(NamedTuple):
    """What one seed's finished run exposes. Snapshots go to ``run``'s callback.

    ``final_p_x0`` is the read-only (C, H, W) float64 row of the last estimate.
    """

    final_p_x0: np.ndarray
    trace: tuple[StepRecord, ...]


def ddim_step(
    x_t: np.ndarray, eps_tilde: np.ndarray, alpha_bar_t: float, alpha_bar_prev: float
) -> tuple[np.ndarray, np.ndarray]:
    """One deterministic update on (..., C, H, W) arrays, in place. Returns (x_prev, p_x0).

    The clean-signal estimate removes the predicted noise at the current
    level and the update re-mixes it at the next level:

        p_x0   = (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
        x_prev = sqrt(ab_prev) * p_x0 + sqrt(1 - ab_prev) * eps

    p_x0 is a new array. Both inputs are consumed: x_prev is written into
    x_t's buffer (x_prev is x_t), and eps_tilde's buffer is overwritten as
    scratch, so the two must not share memory and must have one shape. The
    rounding is that of the expressions above. Both levels lie in (0, 1]
    (ab_t = 0 would be singular); ab_prev = 1 collapses x_prev onto p_x0.
    """
    ab_t = float(alpha_bar_t)
    ab_p = float(alpha_bar_prev)
    p_x0 = np.multiply(eps_tilde, (1.0 - ab_t) ** 0.5)
    np.subtract(x_t, p_x0, out=p_x0)
    p_x0 /= ab_t**0.5
    np.multiply(p_x0, ab_p**0.5, out=x_t)
    eps_tilde *= (1.0 - ab_p) ** 0.5
    x_t += eps_tilde
    return x_t, p_x0


def noise_refresh(
    p_x0: np.ndarray,
    codec,
    target_height: int,
    target_width: int,
    alpha_bar_prev: float,
    eps: Iterable[np.ndarray],
) -> np.ndarray:
    """Rebuild a batch of latents at a new resolution from clean-signal estimates.

    The read-only (B, C, H, W) estimates are resized through the codec's
    decoded space as one batch, and each is re-noised to the requested level
    with its own fresh noise:

        sqrt(ab_prev) * resized + sqrt(1 - ab_prev) * eps

    Returns the new (B, C, H, W) latents as a new array. ``eps`` yields one
    (C, H, W) noise array per estimate, shaped like its target; each is
    drawn only as its row is re-noised, so no more than one seed's noise is
    held at a time.
    ab_prev lies in (0, 1]; ab_prev = 1 (with zero noise) is allowed as a
    diagnostic and returns the resized estimates.
    """
    ab = float(alpha_bar_prev)
    out = np.multiply(refresh_resize(codec, p_x0, target_height, target_width), ab**0.5)
    for row, noise in zip(out, eps, strict=True):
        row += (1.0 - ab) ** 0.5 * noise
    return out


def _failure(cause, step: int, seed: int | None = None) -> SamplerError:
    where = f"step {step}" if seed is None else f"step {step}, seed {seed}"
    return SamplerError(f"{where}: {cause}", step=step, seed=seed)


def _variant_stages(
    variant: str, plan: RefreshPlan
) -> tuple[tuple[Stage, ...], float, str | None]:
    """The stages ``variant`` runs over ``plan``, the gamma of its update levels,
    and the action of its boundaries ("refresh", "resize", or None for a run
    with one stage)."""
    s0 = plan.stages[0]
    if variant == "rectified-no-rect":
        return tuple(st._replace(omega=s0.omega) for st in plan.stages), 1.0, "refresh"
    if variant not in ("baseline", "native-baseline", "snr-corrected"):
        return plan.stages, 1.0, "refresh" if variant == "rectified" else "resize"
    h, w = plan.base_resolution if variant == "baseline" else plan.target_resolution
    gamma = 1.0
    if variant == "snr-corrected":
        bh, bw = plan.base_resolution
        gamma = float((h / bh) * (w / bw)) ** 2
    return (Stage(0, 0, plan.num_steps, h, w, s0.omega),), gamma, None


def run(
    variant: str,
    plan: RefreshPlan,
    denoiser: Denoiser,
    codec,
    label: int | None,
    rngs: Sequence[SeededRng],
    on_step: Callable[[int, np.ndarray], None] | None = None,
    shared: dict | None = None,
) -> tuple[RunResult, ...]:
    """Execute one sampling run per seed, all seeds as one batch.

    Args:
        variant: One of ``VARIANTS``.
        plan: Stage layout over the timeline it carries, the run's one
            source of levels and training steps.
        denoiser: Noise predictor queried twice per step (once per branch;
            the second call is skipped when ``label`` is None).
        codec: Decode/encode pair; a rectified boundary passes it all seeds at once.
        label: Class label of the guided branch, or None for an unguided
            run that predicts only the unconditional branch.
        rngs: One seeded stream bundle per seed, at least one. A seed's
            initial latent draws from its stream ("init", 0); the boundary
            entering stage i draws from its ("refresh", i), so each stage's
            noise depends only on the seed and the stage. Any object with a
            ``seed`` and a ``stream(purpose, index)`` serves as a bundle.
        on_step: Optional; called as ``on_step(step, p_x0)`` after each step,
            in step order. ``p_x0`` is the step's read-only (B, C, H, W)
            batch of estimates, a row per seed in the order of ``rngs``,
            and stays valid after the callback returns.
        shared: Optional store of trajectory states that the caller creates
            and owns; a plain dict. The run resumes from the longest stored
            state whose key matches its own, and stores its state at each
            of ``plan``'s refresh steps and at its end. The result is bitwise
            the one it would be without a store. Only runs given the same
            denoiser, codec and bundle objects resume one another. A run with
            a store takes no ``on_step``, since a resumed run skips steps.

    Returns one :class:`RunResult` per seed, in the order of ``rngs``.
    """
    rngs = tuple(rngs)
    if not rngs:
        raise ValueError("a run needs at least one seed")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if shared is not None and on_step is not None:
        raise ValueError("a run with a shared store takes no on_step callback")
    stages, gamma, boundary = _variant_stages(variant, plan)
    num_steps = plan.num_steps
    channels = denoiser.channels
    first = stages[0]
    guided = label is not None
    # each step's stage, and the action entering it: the boundary's at a
    # stage's first step after the first stage, None elsewhere
    stage_of = [st for st in stages for _ in range(st.first_step, st.last_step)]
    action = [boundary if step == st.first_step > 0 else None for step, st in enumerate(stage_of)]
    # the denoiser reads each step's level; only the update reads the corrected ones
    levels = plan.timeline.alpha_bar_at_step.tolist()
    update = [snr_corrected_alpha_bar(ab, gamma) for ab in levels]

    start, saves = 0, frozenset()
    if shared is not None:
        # what step s reads besides its latent; omega's hex form keeps -0.0
        # apart from 0.0, as the guidance combine does
        reads = [
            (levels[s], levels[s + 1], st.index, st.height, st.width, act, gamma,
             float(st.omega).hex() if guided else None)
            for s, (st, act) in enumerate(zip(stage_of, action))
        ]
        inputs = (denoiser, codec, label, rngs)  # objects by identity, kept alive by the keys

        def key(p: int) -> tuple:
            return (inputs, *reads[:p])

        points = sorted({*plan.refresh_steps, num_steps})
        start = next((p for p in reversed(points) if key(p) in shared), 0)
        saves = frozenset(p for p in points if p > start)

    energies: list[tuple[list[float], list[float]]] = []
    p_x0: np.ndarray | None = None
    if start:
        kept, p_x0, kept_energies = shared[key(start)]
        x = kept.copy()  # the update writes into x
        energies = list(kept_energies)
    else:
        x = np.stack(
            [gaussian_noise(channels, first.height, first.width, r.stream("init")) for r in rngs]
        )

    def save(p: int) -> None:
        kept = x.copy()
        kept.setflags(write=False)
        shared[key(p)] = (kept, p_x0, tuple(energies))

    def workspace(like: np.ndarray):
        # per-stage prediction buffers, one per guidance branch
        return np.empty_like(like), np.empty_like(like) if guided else None

    eps_u, eps_c = workspace(x)
    for step in range(start, num_steps):
        if step in saves:
            save(step)
        ab = levels[step]
        stage = stage_of[step]
        if action[step] is not None:
            h, w = stage.height, stage.width
            try:
                if action[step] == "refresh":
                    x = noise_refresh(
                        p_x0, codec, h, w, ab,
                        (gaussian_noise(channels, h, w, r.stream("refresh", stage.index)) for r in rngs),
                    )
                else:  # a new array, which the update writes into
                    x = resize_bilinear(LatentGrid(x), h, w).data
            except CodecError as exc:
                seed = None if exc.index is None else rngs[exc.index].seed
                raise _failure(exc, step, seed) from exc
            except (ValueError, RuntimeError) as exc:
                raise _failure(exc, step) from exc
            eps_u = eps_c = None  # the old stage's buffers go before the new ones come
            eps_u, eps_c = workspace(x)
        # Release the previous estimate before the update allocates the next.
        p_x0 = None
        try:
            energy_in = average_energy(x)
            eps_tilde = denoiser.predict_eps(x, ab, None, out=eps_u)
            if guided:
                eps_cond = denoiser.predict_eps(x, ab, label, out=eps_c)
                eps_tilde = cfg_combine(eps_tilde, eps_cond, stage.omega)
            x, p_x0 = ddim_step(x, eps_tilde, update[step], update[step + 1])
        except (ValueError, RuntimeError) as exc:
            raise _failure(exc, step) from exc
        p_x0.setflags(write=False)
        p_x0_energy = average_energy(p_x0)
        # A non-finite value in x or in the prediction reaches p_x0, so finite
        # energy sums clear the step; an infinite one of finite values is an overflow.
        for b in np.flatnonzero(~np.isfinite(energy_in + p_x0_energy)):
            if not np.isfinite(p_x0[b]).all():
                raise _failure("latent grid contains non-finite values", step, rngs[b].seed)
            raise _failure("latent energy overflows float64", step, rngs[b].seed)
        energies.append((energy_in.tolist(), p_x0_energy.tolist()))
        if on_step is not None:
            on_step(step, p_x0)
    if num_steps in saves:
        save(num_steps)

    # trace rows are rebuilt from the energies, so a resumed run records its own omega
    rows = [
        (step, int(plan.timeline.step_to_train_t[step]), st.omega, act is not None)
        for step, (st, act) in enumerate(zip(stage_of, action))
    ]
    return tuple(
        RunResult(
            final_p_x0=row,
            trace=tuple(
                StepRecord(step, train_t, omega, e_in[b], e_p[b], refreshed)
                for (step, train_t, omega, refreshed), (e_in, e_p) in zip(rows, energies)
            ),
        )
        for b, row in enumerate(p_x0)
    )
