"""Latent <-> decoded-space codecs and the refresh resize path.

A codec maps a latent grid to a decoded representation and back. The
identity codec makes the decoded space the latent space itself; the
external codec shells out to a user-supplied command (e.g. a real
autoencoder wrapper) speaking a small file protocol.

External protocol: the command is invoked as

    <command...> <mode> <input-file> <output-file>

with mode ``decode`` or ``encode``; both files are RHRT tensors of rank 3.
A non-zero exit status is an error and stderr is passed through in the
diagnostic. Decoding must scale height and width by the codec's declared
granularity and preserve the channel count; encoding must invert that
scaling.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import uuid
from pathlib import Path

from .errors import CodecError, ShapeError
from .latent import LatentGrid, resize_bilinear
from .tensorfile import read_grid, write_grid

__all__ = ["IdentityCodec", "ExternalCodec", "refresh_resize"]


class IdentityCodec:
    """Decoded space equals latent space; granularity 1."""

    granularity = 1

    def decode(self, grid: LatentGrid) -> LatentGrid:
        return grid

    def encode(self, grid: LatentGrid) -> LatentGrid:
        return grid


class ExternalCodec:
    """Codec backed by an external command speaking the file protocol above.

    Calls run one at a time, in the order the sampler makes them (seed by
    seed within each boundary), so the command may be stateful.

    Args:
        command: Command line to run, split with shell quoting rules.
        workdir: Directory for the temporary tensor files; created if absent.
        granularity: Spatial scale factor between latent and decoded space.
    """

    def __init__(self, command: str, workdir: str | Path | None = None, granularity: int = 8):
        argv = shlex.split(command)
        if not argv:
            raise ValueError("external codec command is empty")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self._argv = argv
        self.command = command
        self.granularity = int(granularity)
        self.workdir = Path(workdir) if workdir is not None else Path(tempfile.gettempdir())
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _invoke(self, mode: str, grid: LatentGrid) -> LatentGrid:
        token = uuid.uuid4().hex
        in_path = self.workdir / f"codec-{token}-in.rhrt"
        out_path = self.workdir / f"codec-{token}-out.rhrt"
        try:
            write_grid(in_path, grid)
            proc = subprocess.run(
                [*self._argv, mode, str(in_path), str(out_path)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                detail = proc.stderr.strip() or proc.stdout.strip() or "(no output)"
                raise CodecError(f"{mode} command exited with status {proc.returncode}: {detail}")
            try:
                return read_grid(out_path)
            except (ValueError, OSError) as exc:
                raise CodecError(f"{mode} produced an unreadable tensor: {exc}") from exc
        finally:
            for p in (in_path, out_path):
                p.unlink(missing_ok=True)

    def decode(self, grid: LatentGrid) -> LatentGrid:
        out = self._invoke("decode", grid)
        want = (grid.channels, grid.height * self.granularity, grid.width * self.granularity)
        if out.shape != want:
            raise CodecError(f"decode returned shape {out.shape}, expected {want}")
        return out

    def encode(self, grid: LatentGrid) -> LatentGrid:
        g = self.granularity
        if grid.height % g or grid.width % g:
            raise ShapeError(
                f"encode input dims ({grid.height}, {grid.width}) not divisible by granularity {g}"
            )
        out = self._invoke("encode", grid)
        want = (grid.channels, grid.height // g, grid.width // g)
        if out.shape != want:
            raise CodecError(f"encode returned shape {out.shape}, expected {want}")
        return out


def refresh_resize(codec, grid: LatentGrid, target_height: int, target_width: int) -> LatentGrid:
    """Resize a clean-signal estimate through decoded space.

    Decodes the grid, resamples the decoded representation bilinearly to
    the target resolution (given in latent units), and encodes the result
    back, i.e. encode(resize(decode(grid))). With the identity codec this
    reduces to a plain latent resample.
    """
    g = codec.granularity
    if target_height < 1 or target_width < 1:
        raise ShapeError(f"target dims must be positive, got ({target_height}, {target_width})")
    decoded = codec.decode(grid)
    resized = resize_bilinear(decoded, target_height * g, target_width * g)
    out = codec.encode(resized)
    if out.shape != (grid.channels, target_height, target_width):
        raise CodecError(
            f"refresh resize produced shape {out.shape}, "
            f"expected ({grid.channels}, {target_height}, {target_width})"
        )
    return out
