"""Exactly computable toy denoisers.

Both denoisers answer the same question a trained network would: given a
noisy latent x_t and its noise level ab, predict the noise that was mixed in.
They do it by Bayes-optimal inference under a known prior over clean
latents, so every prediction has a closed form the tests can check against.

Prediction always goes through the clean-signal estimate:

    eps_hat = (x_t - sqrt(ab) * x0_hat) / sqrt(1 - ab)

where x0_hat is the posterior mean of the clean latent and ab the
retained-signal fraction. A denoiser holds no timeline: ``sampler.run`` reads
each step's level from the run's timeline and passes it in.

Latents are (B, C, H, W) batches or single (C, H, W) arrays; each latent
of a batch is predicted on its own.
"""

from __future__ import annotations

import numpy as np

from .latent import LatentGrid, resize_bilinear

__all__ = [
    "Denoiser",
    "GaussianPrior",
    "DatasetPrior",
    "dataset_posterior_mean",
    "cfg_combine",
]


class Denoiser:
    """Interface shared by the toy predictors.

    Subclasses provide ``channels`` and :meth:`predict_eps`.
    """

    channels: int

    def predict_eps(
        self, x_t: np.ndarray, alpha_bar: float, label: int | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Predicted noise for (..., C, H, W) float64 latents at level ``alpha_bar``.

        ``label`` is the class the prediction is conditioned on; None is the
        unconditional branch. The caller guarantees ``alpha_bar`` in (0, 1)
        and x_t's channel count; ``sampler.run`` passes the levels of a
        checked timeline. The prediction is written into ``out`` and returned
        when ``out`` is given: a C-contiguous float64 array of x_t's shape
        that shares no memory with x_t, whose contents are overwritten.
        Otherwise it is a new array. ``x_t`` is only read. Finiteness is not
        checked: the sampler screens it per step.
        """
        raise NotImplementedError


def _eps_from_x0_hat(x_t: np.ndarray, x0_hat: np.ndarray, ab: float) -> np.ndarray:
    # (x_t - sqrt(ab) * x0_hat) / sqrt(1 - ab), rounded alike, in x0_hat's buffer
    x0_hat *= -np.sqrt(ab)
    x0_hat += x_t
    x0_hat /= np.sqrt(1.0 - ab)
    return x0_hat


class GaussianPrior(Denoiser):
    """Bayes-optimal predictor for clean latents drawn from N(mean, variance * I).

    The posterior mean of the clean latent given x_t has the closed form

        x0_hat = mean + (sqrt(ab) * variance / (ab * variance + 1 - ab))
                 * (x_t - sqrt(ab) * mean)

    which is affine in x_t; a whole run under this prior composes to one
    affine map, the basis of the trajectory oracle in the sampler module.

    The prior carries no class structure, so both guidance branches
    coincide and the label argument has no effect on the output.

    ``mean`` is a non-empty (C, H, W) array of finite values, checked here
    and kept as a read-only float64 copy. When queried at a resolution other
    than the stored mean's, each channel's spatial mean value is broadcast
    to the queried shape.
    """

    def __init__(self, mean: np.ndarray, variance: float):
        mean = np.array(mean, dtype=np.float64)  # a copy the caller cannot write through
        if mean.ndim != 3 or mean.size == 0:
            raise ValueError(f"prior mean must be a non-empty (C, H, W) array, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("prior mean contains non-finite values")
        if not variance > 0:
            raise ValueError(f"variance must be positive, got {variance}")
        mean.setflags(write=False)
        self.mean = mean
        self.variance = float(variance)
        self.channels = mean.shape[0]
        self._channel_means = mean.mean(axis=(1, 2))

    def mean_for_shape(self, height: int, width: int) -> np.ndarray:
        if (height, width) == self.mean.shape[1:]:
            return self.mean
        return np.broadcast_to(
            self._channel_means[:, None, None], (self.channels, height, width)
        )

    def predict_eps(
        self, x_t: np.ndarray, alpha_bar: float, label: int | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        ab = alpha_bar
        mean = self.mean_for_shape(*x_t.shape[-2:])
        gain = np.sqrt(ab) * self.variance / (ab * self.variance + 1.0 - ab)
        # x0_hat = mean + gain * (x_t - sqrt(ab) * mean), rounded alike, in out
        x0_hat = np.subtract(x_t, np.sqrt(ab) * mean, out=out)
        x0_hat *= gain
        x0_hat += mean
        return _eps_from_x0_hat(x_t, x0_hat, ab)


class DatasetPrior(Denoiser):
    """Bayes-optimal predictor for clean latents drawn uniformly from a point set.

    Points may carry class labels; a class label restricts the
    posterior to that class's points, the unconditional branch uses all of
    them. Queries at a resolution other than the stored points' resample
    every point bilinearly to the queried shape; :meth:`prepare_resolution`
    builds each resolution's stack on its first query and caches it.

    The posterior reads the points as rows of a flattened (N, C*H*W) matrix
    alongside their half squared norms. Both are cached on first use: per
    resolution for all points (the matrix is a view of the cached stack),
    and per (resolution, label) for one class's rows, copied contiguous so
    a conditional query touches only those rows. The row indices of each
    label are fixed at construction. ``points`` is the (N, C, H, W) stack of
    finite values, kept as given when it is a read-only float64 array and
    copied into one otherwise.
    """

    def __init__(self, points: np.ndarray, labels: list[int]):
        native = np.asarray(points, dtype=np.float64)
        if native.ndim != 4 or native.size == 0:
            raise ValueError(f"need a non-empty (N, C, H, W) stack of points, got {native.shape}")
        if len(labels) != len(native):
            raise ValueError(f"got {len(native)} points but {len(labels)} labels")
        if native.flags.writeable:  # the caller may still write to it
            native = native.copy()
            native.setflags(write=False)
        self.points = native
        self.labels = tuple(int(l) for l in labels)
        self.channels = native.shape[1]
        self._stacks: dict[tuple[int, int], np.ndarray] = {native.shape[2:]: native}
        label_array = np.array(self.labels)
        self._label_rows = {lab: np.flatnonzero(label_array == lab) for lab in set(self.labels)}
        # (height, width, label or None) -> (flattened rows, half squared norms)
        self._rows: dict[tuple[int, int, int | None], tuple[np.ndarray, np.ndarray]] = {}

    def prepare_resolution(self, height: int, width: int) -> None:
        key = (height, width)
        if key not in self._stacks:
            resized = resize_bilinear(LatentGrid(self.points), height, width).data
            resized.setflags(write=False)  # cached stacks are read-only, as the native one is
            self._stacks[key] = resized

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
                flat = flat[self._label_rows[label]]
            cached = (flat, 0.5 * np.einsum("nd,nd->n", flat, flat))
            self._rows[key] = cached
        return cached

    def predict_eps(
        self, x_t: np.ndarray, alpha_bar: float, label: int | None, out: np.ndarray | None = None
    ) -> np.ndarray:
        x0_hat = dataset_posterior_mean(self, x_t, alpha_bar, label, out)
        return _eps_from_x0_hat(x_t, x0_hat, alpha_bar)


def dataset_posterior_mean(
    prior: DatasetPrior,
    x_t: np.ndarray,
    alpha_bar_t: float,
    label: int | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior mean of the clean latent under a uniform point-set prior.

    ``x_t`` is one (C, H, W) latent or a (B, C, H, W) batch with the prior's
    channel count, at a level ``alpha_bar_t`` in (0, 1), and ``label`` is
    None (every point) or a label some point carries; the caller guarantees
    all three. Each latent gets its own weights. The means are written into
    ``out`` when given (a C-contiguous float64 array of x_t's shape), into a
    new array otherwise.

    With points p_i at the query resolution, the
    weight of point i for a latent x_t is proportional to
    exp(-||x_t - sqrt(ab) * p_i||^2 / (2 * (1 - ab))). Expanding the square,

        ||x_t - sqrt(ab) p_i||^2 = ||x_t||^2 - 2 sqrt(ab) <x_t, p_i> + ab ||p_i||^2,

    and the ||x_t||^2 term is the same for every point, so it cancels when
    the weights are normalised. That leaves

        log w_i = (sqrt(ab) <x_t, p_i> - ab ||p_i||^2 / 2) / (1 - ab),

    so the whole batch needs one matrix product against the flattened
    points, X P^T, and the means one more (W P). Each latent's largest
    exponent is subtracted from its row before exponentiation so the
    softmax stays finite at levels arbitrarily close to 1, where the
    posterior collapses onto the nearest point (ties sharing weight
    equally).
    """
    flat, half_sq_norms = prior._rows_for(*x_t.shape[-2:], label)
    dots = x_t.reshape(-1, flat.shape[1]) @ flat.T
    log_w = (np.sqrt(alpha_bar_t) * dots - alpha_bar_t * half_sq_norms) / (1.0 - alpha_bar_t)
    log_w -= log_w.max(axis=1, keepdims=True)
    weights = np.exp(log_w)
    weights /= weights.sum(axis=1, keepdims=True)
    if out is None:
        out = np.empty(x_t.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous: the means are written through a flat view")
    np.matmul(weights, flat, out=out.reshape(-1, flat.shape[1]))
    return out


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, omega: float) -> np.ndarray:
    """Guided prediction: eps_uncond + omega * (eps_cond - eps_uncond), in place.

    omega = 1 returns the conditional branch, omega = 0 the unconditional
    one; values beyond 1 extrapolate along the branch difference. The result
    is written into eps_uncond's buffer and returned, and eps_cond's buffer
    is overwritten on the way, so the two must be separate buffers of one
    shape; the rounding is that of the expression above.
    """
    eps_cond -= eps_uncond
    eps_cond *= omega
    eps_uncond += eps_cond
    return eps_uncond
