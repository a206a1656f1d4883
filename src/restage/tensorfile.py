"""Reader and writer for the RHRT binary tensor format.

Layout, all integers little-endian:

    offset 0   magic   4 bytes, b"RHRT"
    offset 4   version u32, currently 1
    offset 8   ndim    u32
    offset 12  dims    ndim x u32
    then       payload prod(dims) float32 values, row-major

Values are stored as float32; reading back a written file reproduces the
float32 payload bit for bit. Core math runs in float64 and is truncated
only at this boundary. A latent is a rank-3 (C, H, W) tensor:
:func:`write_grid` and :func:`read_grid` take and give plain arrays and
check the rank. The writers write straight to the path they are given; the
command-line interface stages a command's files and publishes them together
(``docs/DECISIONS.md`` entry 17).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import TensorFormatError

MAGIC = b"RHRT"
VERSION = 1
MAX_NDIM = 8

__all__ = ["MAGIC", "VERSION", "read_tensor", "write_tensor", "read_grid", "write_grid"]


def write_tensor(path: str | Path, values: np.ndarray) -> None:
    """Serialize an array as float32. Rejects values that do not stay finite.

    The payload is written straight from the float32 array's buffer, with no
    bytes copy.
    """
    arr = np.asarray(values)
    if arr.ndim < 1 or arr.ndim > MAX_NDIM:
        raise TensorFormatError(f"tensor rank must be 1..{MAX_NDIM}, got {arr.ndim}")
    if 0 in arr.shape:  # the reader refuses an empty dimension
        raise TensorFormatError(f"dimension {arr.shape.index(0)} is zero")
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned about
        payload = np.ascontiguousarray(arr, dtype=np.float32)
    if not np.all(np.isfinite(payload)):
        raise ValueError("tensor contains values that are not finite as float32")
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload.astype("<f4", copy=False)))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor back as a float32 array, validating every header field."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise TensorFormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    if len(blob) < 8:
        raise TensorFormatError("truncated before version field", offset=4)
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}, expected {VERSION}", offset=4)
    if len(blob) < 12:
        raise TensorFormatError("truncated before ndim field", offset=8)
    (ndim,) = struct.unpack_from("<I", blob, 8)
    if ndim < 1 or ndim > MAX_NDIM:
        raise TensorFormatError(f"tensor rank must be 1..{MAX_NDIM}, got {ndim}", offset=8)
    dims_end = 12 + 4 * ndim
    if len(blob) < dims_end:
        raise TensorFormatError("truncated inside dims list", offset=len(blob))
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = 1
    for i, d in enumerate(dims):
        if d == 0:
            raise TensorFormatError(f"dimension {i} is zero", offset=12 + 4 * i)
        count *= d
    expected = dims_end + 4 * count
    if len(blob) != expected:
        raise TensorFormatError(
            f"payload length mismatch: file has {len(blob) - dims_end} bytes, "
            f"dims {dims} require {4 * count}",
            offset=dims_end,
        )
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=dims_end)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise TensorFormatError(
            f"non-finite value at flat index {bad[0]}", offset=dims_end + 4 * int(bad[0])
        )
    return flat.reshape(dims).copy()


def write_grid(path: str | Path, grid: np.ndarray) -> None:
    """Write one (C, H, W) latent as a rank-3 tensor."""
    if np.ndim(grid) != 3:
        raise TensorFormatError(f"expected a rank-3 (C, H, W) tensor, got rank {np.ndim(grid)}")
    write_tensor(path, grid)


def read_grid(path: str | Path) -> np.ndarray:
    """Read a file that must contain a rank-3 (C, H, W) tensor, as read-only float64."""
    arr = read_tensor(path)
    if arr.ndim != 3:
        raise TensorFormatError(f"expected a rank-3 (C, H, W) tensor, got rank {arr.ndim}", offset=8)
    data = arr.astype(np.float64)
    data.setflags(write=False)
    return data
