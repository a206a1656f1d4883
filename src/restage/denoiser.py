"""Exactly computable toy denoisers.

Both denoisers answer the same question a trained network would: given a
noisy latent x_t at sampling step s, predict the noise that was mixed in.
They do it by Bayes-optimal inference under a known prior over clean
latents, so every prediction has a closed form the tests can check against.

Prediction always goes through the clean-signal estimate:

    eps_hat = (x_t - sqrt(ab) * x0_hat) / sqrt(1 - ab)

where x0_hat is the posterior mean of the clean latent and ab the step's
retained-signal fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenoiserError, ShapeError
from .latent import LatentGrid, resize_bilinear
from .schedule import SamplerTimeline

__all__ = [
    "Condition",
    "UNCONDITIONAL",
    "Denoiser",
    "GaussianPrior",
    "DatasetPrior",
    "dataset_posterior_mean",
    "cfg_combine",
]


@dataclass(frozen=True)
class Condition:
    """What the prediction is conditioned on: a class label, or nothing."""

    label: int | None = None

    @property
    def is_conditional(self) -> bool:
        return self.label is not None

    def __repr__(self) -> str:
        return "Condition(unconditional)" if self.label is None else f"Condition(label={self.label})"


UNCONDITIONAL = Condition()


class Denoiser:
    """Interface shared by the toy predictors.

    Subclasses provide ``channels`` and :meth:`predict_eps`; they resolve
    the step's noise level through the timeline they were built with.
    """

    channels: int

    def predict_eps(self, x_t: np.ndarray, step: int, condition: Condition) -> np.ndarray:
        """Predicted noise for a (C, H, W) float64 latent, as a new array of the same shape.

        The sampler calls this inside a step, where latents are plain arrays;
        it does not check finiteness, which the sampler screens per step.
        """
        raise NotImplementedError

    def prepare_resolution(self, height: int, width: int) -> None:
        """Warm any per-resolution state before a stage starts. No-op by default."""

    def _level_at(self, timeline: SamplerTimeline, step: int) -> float:
        if not 0 <= step < timeline.num_steps:
            raise DenoiserError(f"step {step} outside the timeline [0, {timeline.num_steps})")
        return float(timeline.alpha_bar_at_step[step])


def _eps_from_x0_hat(x_t: np.ndarray, x0_hat: np.ndarray, ab: float) -> np.ndarray:
    return (x_t - np.sqrt(ab) * x0_hat) / np.sqrt(1.0 - ab)


class GaussianPrior(Denoiser):
    """Bayes-optimal predictor for clean latents drawn from N(mean, variance * I).

    The posterior mean of the clean latent given x_t has the closed form

        x0_hat = mean + (sqrt(ab) * variance / (ab * variance + 1 - ab))
                 * (x_t - sqrt(ab) * mean)

    which is affine in x_t; a whole run under this prior composes to one
    affine map, the basis of the trajectory oracle in the sampler module.

    The prior carries no class structure, so both guidance branches
    coincide and the condition argument has no effect on the output.

    When queried at a resolution other than the stored mean's, each
    channel's spatial mean value is broadcast to the queried shape.
    """

    def __init__(self, mean: LatentGrid, variance: float, timeline: SamplerTimeline):
        if not variance > 0:
            raise ValueError(f"variance must be positive, got {variance}")
        self.mean = mean
        self.variance = float(variance)
        self.timeline = timeline
        self.channels = mean.channels
        self._channel_means = mean.data.mean(axis=(1, 2))

    def mean_for_shape(self, height: int, width: int) -> np.ndarray:
        if (height, width) == (self.mean.height, self.mean.width):
            return self.mean.data
        return np.broadcast_to(
            self._channel_means[:, None, None], (self.channels, height, width)
        )

    def predict_eps(self, x_t: np.ndarray, step: int, condition: Condition) -> np.ndarray:
        if x_t.shape[0] != self.channels:
            raise DenoiserError(f"expected {self.channels} channels, got {x_t.shape[0]}")
        ab = self._level_at(self.timeline, step)
        mean = self.mean_for_shape(*x_t.shape[1:])
        gain = np.sqrt(ab) * self.variance / (ab * self.variance + 1.0 - ab)
        x0_hat = mean + gain * (x_t - np.sqrt(ab) * mean)
        return _eps_from_x0_hat(x_t, x0_hat, ab)


class DatasetPrior(Denoiser):
    """Bayes-optimal predictor for clean latents drawn uniformly from a point set.

    Points may carry class labels; a class condition restricts the
    posterior to that class's points, the unconditional branch uses all of
    them. Queries at a resolution other than the stored points' resample
    every point bilinearly to the queried shape; resampled stacks are cached
    per resolution and can be warmed eagerly via :meth:`prepare_resolution`.

    The posterior reads the points as rows of a flattened (N, C*H*W) matrix
    alongside their half squared norms. Both are cached on first use: per
    resolution for all points (the matrix is a view of the cached stack),
    and per (resolution, label) for one class's rows, copied contiguous so
    a conditional query touches only those rows. The row indices of each
    label are fixed at construction. Every cache entry is computed in full
    and then stored with one dict assignment, so threads sharing a prior
    can at worst compute the same entry twice.
    """

    def __init__(self, points: list[LatentGrid], labels: list[int], timeline: SamplerTimeline):
        if not points:
            raise ValueError("dataset prior needs at least one point")
        if len(labels) != len(points):
            raise ValueError(f"got {len(points)} points but {len(labels)} labels")
        shape = points[0].shape
        for i, p in enumerate(points):
            if p.shape != shape:
                raise ShapeError(f"point {i} has shape {p.shape}, expected {shape}")
        self.points = tuple(points)
        self.labels = tuple(int(l) for l in labels)
        self.timeline = timeline
        self.channels = shape[0]
        self._native_shape = (shape[1], shape[2])
        self._stacks: dict[tuple[int, int], np.ndarray] = {
            self._native_shape: np.stack([p.data for p in points])
        }
        label_array = np.array(self.labels)
        self._label_rows = {lab: np.flatnonzero(label_array == lab) for lab in set(self.labels)}
        # (height, width, label or None) -> (flattened rows, half squared norms)
        self._rows: dict[tuple[int, int, int | None], tuple[np.ndarray, np.ndarray]] = {}

    def prepare_resolution(self, height: int, width: int) -> None:
        key = (height, width)
        if key not in self._stacks:
            self._stacks[key] = np.stack(
                [resize_bilinear(p, height, width).data for p in self.points]
            )

    def stack_for_shape(self, height: int, width: int) -> np.ndarray:
        self.prepare_resolution(height, width)
        return self._stacks[(height, width)]

    def _rows_for(self, height: int, width: int, label: int | None):
        """Flattened points of one branch at one resolution, with half squared norms."""
        key = (height, width, label)
        cached = self._rows.get(key)
        if cached is None:
            flat = self.stack_for_shape(height, width).reshape(len(self.points), -1)
            if label is not None:
                if label not in self._label_rows:
                    raise DenoiserError(f"no points carry label {label}")
                flat = flat[self._label_rows[label]]
            cached = (flat, 0.5 * np.einsum("nd,nd->n", flat, flat))
            self._rows[key] = cached
        return cached

    def predict_eps(self, x_t: np.ndarray, step: int, condition: Condition) -> np.ndarray:
        ab = self._level_at(self.timeline, step)
        x0_hat = dataset_posterior_mean(self, x_t, ab, condition)
        return _eps_from_x0_hat(x_t, x0_hat, ab)


def dataset_posterior_mean(
    prior: DatasetPrior, x_t: np.ndarray, alpha_bar_t: float, condition: Condition
) -> np.ndarray:
    """Posterior mean of the clean latent under a uniform point-set prior.

    With points p_i at the query resolution, the weight of point i is
    proportional to exp(-||x_t - sqrt(ab) * p_i||^2 / (2 * (1 - ab))).
    Expanding the square,

        ||x_t - sqrt(ab) p_i||^2 = ||x_t||^2 - 2 sqrt(ab) <x_t, p_i> + ab ||p_i||^2,

    and the ||x_t||^2 term is the same for every point, so it cancels when
    the weights are normalised. That leaves

        log w_i = (sqrt(ab) <x_t, p_i> - ab ||p_i||^2 / 2) / (1 - ab),

    one matrix-vector product against the flattened points, and the mean
    is one more (w^T P). The largest exponent is subtracted before
    exponentiation so the softmax stays finite at levels arbitrarily close
    to 1, where the posterior collapses onto the nearest point (ties
    sharing weight equally).
    """
    if not 0.0 < alpha_bar_t < 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1), got {alpha_bar_t}")
    if x_t.shape[0] != prior.channels:
        raise DenoiserError(f"expected {prior.channels} channels, got {x_t.shape[0]}")
    flat, half_sq_norms = prior._rows_for(*x_t.shape[1:], condition.label)
    dots = flat @ x_t.reshape(-1)
    log_w = (np.sqrt(alpha_bar_t) * dots - alpha_bar_t * half_sq_norms) / (1.0 - alpha_bar_t)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    return (weights @ flat).reshape(x_t.shape)


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, omega: float) -> np.ndarray:
    """Guided prediction: eps_uncond + omega * (eps_cond - eps_uncond).

    omega = 1 returns the conditional branch, omega = 0 the unconditional
    one; values beyond 1 extrapolate along the branch difference.
    """
    if eps_uncond.shape != eps_cond.shape:
        raise ShapeError(
            f"branch shapes differ: {eps_uncond.shape} vs {eps_cond.shape}"
        )
    return eps_uncond + omega * (eps_cond - eps_uncond)
