"""Latent grids and the elementary operations the sampler is built from.

A latent is a dense (channels, height, width) block of float64 values,
held as a plain ndarray, noise draws included; the latents, predictions
and clean estimates of a batch of seeds are (B, C, H, W) arrays.
:class:`LatentGrid` is a bare holder of an array that checks, copies and
freezes nothing. It remains only as the form :func:`resize_bilinear`
takes and returns, which two benchmark pins name (``docs/DECISIONS.md``
entry 16). :func:`average_energy` takes a batch and sums each
seed's energy as one BLAS dot product of its row, so a seed's energy does
not depend on the batch around it. Its summation order is not the direct
mean's: the energies are observers that no tensor reads
(``docs/DECISIONS.md`` entry 20).
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
    """Holder of a float64 array, the form ``resize_bilinear`` takes and returns."""

    __slots__ = ("data",)

    def __init__(self, values):
        self.data = np.asarray(values, dtype=np.float64)  # a float64 array is not copied


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


def gaussian_noise(channels: int, height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a standard-normal (C, H, W) array from ``rng``."""
    return rng.standard_normal((channels, height, width))


def average_energy(x: np.ndarray) -> np.ndarray:
    """sum(x^2) / (C * H * W) of each (C, H, W) latent in an (..., C, H, W) array.

    One energy per seed of a (B, C, H, W) batch, a scalar for one latent.
    Each is one BLAS dot product of the seed's flattened row with itself, so
    a seed's energy is bitwise the same in any batch and alone. Squares that
    overflow give an infinite energy, without a warning.
    """
    n = x.shape[-3] * x.shape[-2] * x.shape[-1]
    rows = x.reshape(*x.shape[:-3], 1, n)
    with np.errstate(over="ignore"):
        return (rows @ rows.swapaxes(-1, -2))[..., 0, 0] / n


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
    """Separable bilinear resample of the last two axes, half-pixel centers, clamped edges.

    Takes and returns a holder of an (..., H, W) array; the output is a new,
    writable array. Every output value is a convex combination of input
    values, so the output range is contained in the input range grid by
    grid. Each (H, W) grid is resampled alone, so a (B, C, H, W) batch
    resizes bit for bit as grid by grid.
    """
    if target_height < 1 or target_width < 1:
        raise ValueError(f"target dimensions must be positive, got ({target_height}, {target_width})")
    y_lo, y_hi, fy = _axis_lerp_indices(grid.data.shape[-2], target_height)
    x_lo, x_hi, fx = _axis_lerp_indices(grid.data.shape[-1], target_width)
    return LatentGrid(_lerp(_lerp(grid.data, y_lo, y_hi, fy[:, None], -2), x_lo, x_hi, fx, -1))
