"""Latent grids and the elementary operations the sampler is built from.

A latent is a dense (channels, height, width) block of float64 values.
:class:`LatentGrid` is the validated form used at a run's edges: initial
noise, boundary resizes and codecs, snapshots, final estimates, tensor files
and the priors' stored points. Grids are immutable once constructed: the
wrapped array is copied in, checked finite and marked read-only, so a grid
can be shared freely between runs and threads. Inside a sampling step the
latent, predictions and clean estimates are plain float64 ndarrays, so
:func:`average_energy` takes an array.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ShapeError

__all__ = [
    "LatentGrid",
    "SeededRng",
    "gaussian_noise",
    "forward_diffuse",
    "average_energy",
    "resize_bilinear",
    "resize_nearest",
]


class LatentGrid:
    """Immutable 3-D grid of finite float64 values.

    Args:
        values: Array-like of shape (channels, height, width). Copied and
            converted to float64; every element must be finite.
    """

    __slots__ = ("_data",)

    def __init__(self, values):
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 3:
            raise ShapeError(f"latent grid must be 3-D (C, H, W), got ndim={data.ndim}")
        if data.size == 0:
            raise ShapeError(f"latent grid dimensions must be positive, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("latent grid contains non-finite values")
        data = data.copy()
        data.setflags(write=False)
        self._data = data

    @classmethod
    def full(cls, channels: int, height: int, width: int, value: float) -> "LatentGrid":
        return cls(np.full((channels, height, width), value, dtype=np.float64))

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "LatentGrid":
        return cls.full(channels, height, width, 0.0)

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying (C, H, W) array."""
        return self._data

    @property
    def channels(self) -> int:
        return self._data.shape[0]

    @property
    def height(self) -> int:
        return self._data.shape[1]

    @property
    def width(self) -> int:
        return self._data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._data.shape

    def __repr__(self) -> str:
        c, h, w = self.shape
        return f"LatentGrid(channels={c}, height={h}, width={w})"


def _stable_tag(purpose: str) -> int:
    # Python's built-in hash() is salted per process; use a fixed digest so
    # stream derivation is identical across runs and platforms.
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRng:
    """Deterministic random streams derived from one run seed.

    Each (purpose, index) pair names an independent substream, so e.g. the
    refresh noise for stage 2 can be reproduced without replaying any draws
    that came before it.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in an unsigned 64-bit value, got {seed}")
        self.seed = seed

    def stream(self, purpose: str, index: int = 0) -> np.random.Generator:
        if index < 0:
            raise ValueError(f"stream index must be non-negative, got {index}")
        seq = np.random.SeedSequence([self.seed, _stable_tag(purpose), int(index)])
        return np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"


def gaussian_noise(channels: int, height: int, width: int, rng: np.random.Generator) -> LatentGrid:
    """Draw a standard-normal grid of the given shape from ``rng``."""
    if channels < 1 or height < 1 or width < 1:
        raise ShapeError(f"noise dimensions must be positive, got ({channels}, {height}, {width})")
    return LatentGrid(rng.standard_normal((channels, height, width)))


def forward_diffuse(x0: LatentGrid, alpha_bar_t: float, eps: LatentGrid) -> LatentGrid:
    """Noise a clean grid to level ``alpha_bar_t``.

    Returns sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, the
    closed-form forward marginal of the diffusion at a retained-signal
    fraction of alpha_bar_t.
    """
    if not 0.0 <= alpha_bar_t <= 1.0:
        raise ValueError(f"alpha_bar_t must lie in [0, 1], got {alpha_bar_t}")
    if x0.shape != eps.shape:
        raise ShapeError(f"signal shape {x0.shape} does not match noise shape {eps.shape}")
    ab = float(alpha_bar_t)
    return LatentGrid(np.sqrt(ab) * x0.data + np.sqrt(1.0 - ab) * eps.data)


def average_energy(x: np.ndarray) -> float:
    """Mean squared value over all elements of a (C, H, W) array: sum(x^2) / (C * H * W)."""
    return float(np.mean(x * x))


def _axis_lerp_indices(src_size: int, dst_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Half-pixel-center source coordinates, clamped to the valid range so
    # border samples are edge-replicated rather than extrapolated.
    scale = src_size / dst_size
    coords = (np.arange(dst_size, dtype=np.float64) + 0.5) * scale - 0.5
    coords = np.clip(coords, 0.0, src_size - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, src_size - 1)
    frac = coords - lo
    return lo, hi, frac


def resize_bilinear(grid: LatentGrid, target_height: int, target_width: int) -> LatentGrid:
    """Separable bilinear resample with half-pixel centers and clamped edges.

    Every output value is a convex combination of input values, so the
    output range is contained in the input range channel by channel.
    """
    if target_height < 1 or target_width < 1:
        raise ShapeError(f"target dimensions must be positive, got ({target_height}, {target_width})")
    arr = grid.data
    y_lo, y_hi, fy = _axis_lerp_indices(grid.height, target_height)
    x_lo, x_hi, fx = _axis_lerp_indices(grid.width, target_width)
    rows = arr[:, y_lo, :] * (1.0 - fy)[None, :, None] + arr[:, y_hi, :] * fy[None, :, None]
    out = rows[:, :, x_lo] * (1.0 - fx)[None, None, :] + rows[:, :, x_hi] * fx[None, None, :]
    return LatentGrid(out)


def resize_nearest(grid: LatentGrid, target_height: int, target_width: int) -> LatentGrid:
    """Nearest-neighbour resample under the same half-pixel-center convention.

    Included as a diagnostic alternative to :func:`resize_bilinear`; it
    preserves the input's value set instead of smoothing it.
    """
    if target_height < 1 or target_width < 1:
        raise ShapeError(f"target dimensions must be positive, got ({target_height}, {target_width})")
    y = np.clip(
        np.floor((np.arange(target_height, dtype=np.float64) + 0.5) * grid.height / target_height),
        0,
        grid.height - 1,
    ).astype(np.intp)
    x = np.clip(
        np.floor((np.arange(target_width, dtype=np.float64) + 0.5) * grid.width / target_width),
        0,
        grid.width - 1,
    ).astype(np.intp)
    return LatentGrid(grid.data[:, y, :][:, :, x])
