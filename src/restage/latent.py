"""Latent grids and the elementary operations the sampler is built from.

A latent is a dense (channels, height, width) block of float64 values.
:class:`LatentGrid` is its validated, immutable form: the wrapped array is
copied in, checked finite and marked read-only. It remains in two places:
the draws of :func:`gaussian_noise`, and the grid form of
:func:`resize_bilinear`, whose batch callers adopt a read-only view of their
channels without the copy. Everything else is a plain float64 ndarray: a
Gaussian prior's mean (which the prior checks), a run's initial noise, the
noise a refresh takes, and a run's snapshots, final estimates and tensor
files. The latents, predictions and clean estimates of a batch of seeds
are (B, C, H, W) arrays, and :func:`average_energy` takes one.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "LatentGrid",
    "SeededRng",
    "gaussian_noise",
    "average_energy",
    "resize_bilinear",
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
            raise ValueError(f"latent grid must be 3-D (C, H, W), got ndim={data.ndim}")
        if data.size == 0:
            raise ValueError(f"latent grid dimensions must be positive, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("latent grid contains non-finite values")
        data = data.copy()
        data.setflags(write=False)
        self._data = data

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "LatentGrid":
        """Wrap a read-only (C, H, W) float64 array without copying or screening it.

        Only for arrays already screened finite that nothing writes through
        any more, such as the channels of a read-only batch given to a resize.
        """
        if data.flags.writeable or data.dtype != np.float64 or data.ndim != 3:
            raise ValueError("only a read-only 3-D float64 array can be adopted")
        grid = object.__new__(cls)
        grid._data = data
        return grid

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying (C, H, W) array."""
        return self._data


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
    return LatentGrid(rng.standard_normal((channels, height, width)))


def average_energy(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """sum(x^2) / (C * H * W) of each (C, H, W) latent in an (..., C, H, W) array.

    One reduction: one energy per seed of a (B, C, H, W) batch, a scalar for
    one latent. The squares go into ``scratch`` (x's shape, overwritten) when
    it is given, into a new array otherwise; the energies are the same.
    Squares that overflow give an infinite energy, without a warning.
    """
    with np.errstate(over="ignore"):
        return np.mean(np.multiply(x, x, out=scratch), axis=(-3, -2, -1))


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


def _lerp(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, frac: np.ndarray, axis: int):
    # arr[lo] * (1 - frac) + arr[hi] * frac along ``axis``, into the first take
    out = np.take(arr, lo, axis=axis)
    out *= 1.0 - frac
    upper = np.take(arr, hi, axis=axis)
    upper *= frac
    out += upper
    return out


def resize_bilinear(grid: LatentGrid, target_height: int, target_width: int) -> LatentGrid:
    """Separable bilinear resample with half-pixel centers and clamped edges.

    Every output value is a convex combination of input values, so the
    output range is contained in the input range channel by channel. Each
    channel is resampled alone, so a (B, C, H, W) batch resizes as one grid
    of its B*C channels, bit for bit as grid by grid.
    """
    if target_height < 1 or target_width < 1:
        raise ValueError(f"target dimensions must be positive, got ({target_height}, {target_width})")
    y_lo, y_hi, fy = _axis_lerp_indices(grid.data.shape[1], target_height)
    x_lo, x_hi, fx = _axis_lerp_indices(grid.data.shape[2], target_width)
    out = _lerp(_lerp(grid.data, y_lo, y_hi, fy[:, None], -2), x_lo, x_hi, fx, -1)
    out.setflags(write=False)  # a new array of convex combinations of finite values
    return LatentGrid._adopt(out)
