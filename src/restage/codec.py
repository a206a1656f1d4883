"""Latent <-> decoded-space codecs and the refresh resize path.

A codec maps a batch of latent grids to decoded representations and back:
``decode`` and ``encode`` take a sequence of (C, H, W) grids and return a
list in the same order. The identity codec makes the decoded space the
latent space itself; the external codec shells out to a user-supplied
command (e.g. a real autoencoder wrapper) speaking a small file protocol.

External protocol: the command is invoked once per grid as

    <command...> <mode> <input-file> <output-file>

with mode ``decode`` or ``encode``; both files are RHRT tensors of rank 3.
A non-zero exit status is an error and the command's output is passed
through in the diagnostic. Decoding must scale height and width by the
codec's declared granularity and preserve the channel count; encoding must
invert that scaling. Each call must be a pure file-to-file map, since the
calls of a batch run concurrently (``docs/DECISIONS.md`` entry 8).
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Sequence
from pathlib import Path

from .errors import CodecError
from .latent import LatentGrid, resize_bilinear
from .tensorfile import read_grid, write_grid

__all__ = ["IdentityCodec", "ExternalCodec", "refresh_resize"]


class IdentityCodec:
    """Decoded space equals latent space; granularity 1."""

    granularity = 1

    def decode(self, grids: Sequence[LatentGrid]) -> list[LatentGrid]:
        return list(grids)

    def encode(self, grids: Sequence[LatentGrid]) -> list[LatentGrid]:
        return list(grids)


def _expect(mode: str, outputs: list[LatentGrid], shapes) -> list[LatentGrid]:
    for index, (out, want) in enumerate(zip(outputs, shapes)):
        if out.shape != want:
            raise CodecError(f"{mode} returned shape {out.shape}, expected {want}", index=index)
    return outputs


class ExternalCodec:
    """Codec backed by an external command speaking the file protocol above.

    A batch runs one command per grid, at most one per CPU this process may
    use (``os.sched_getaffinity``) at a time, starting the next as any one
    exits, and reads the outputs once all have exited. A failed call or an
    interrupt kills and reaps the running commands and removes the batch's
    files before the error propagates.

    A batch's tensor files live in a temporary directory under
    ``tempfile.gettempdir()``, removed when the batch ends.

    Args:
        command: Command line to run, split with shell quoting rules.
        granularity: Spatial scale factor between latent and decoded space.
    """

    def __init__(self, command: str, granularity: int = 8):
        import shlex  # imported here so identity-codec runs do not load it

        argv = shlex.split(command)
        if not argv:
            raise ValueError("external codec command is empty")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        self._argv = argv
        self.command = command
        self.granularity = int(granularity)

    def _invoke(self, mode: str, grids: Sequence[LatentGrid]) -> list[LatentGrid]:
        import select
        import subprocess  # imported here so identity-codec runs do not load them

        width = len(os.sched_getaffinity(0))
        procs = []
        pidfds: dict[int, int] = {}  # an open pidfd -> the batch index of its command
        poller = select.poll()
        with tempfile.TemporaryDirectory(prefix="codec-") as tmp:
            stems = [Path(tmp, str(i)) for i in range(len(grids))]
            for stem, grid in zip(stems, grids):
                write_grid(f"{stem}.in", grid)

            def start(i: int) -> None:
                with open(f"{stems[i]}.log", "wb") as log:
                    procs.append(subprocess.Popen(
                        [*self._argv, mode, f"{stems[i]}.in", f"{stems[i]}.out"],
                        stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                    ))
                fd = os.pidfd_open(procs[i].pid)
                pidfds[fd] = i
                poller.register(fd, select.POLLIN)

            try:
                for i in range(min(width, len(grids))):
                    start(i)
                # take commands as they exit, whichever comes first, and start
                # the next queued one in each one's place, so that at most
                # `width` run at once and a failure is seen as soon as it exits
                while pidfds:
                    for fd, _ in poller.poll():
                        i = pidfds.pop(fd)
                        poller.unregister(fd)
                        os.close(fd)
                        status = procs[i].wait()
                        if status != 0:
                            log = Path(f"{stems[i]}.log").read_text(errors="replace").strip() or "(no output)"
                            raise CodecError(f"{mode} command exited with status {status}: {log}", index=i)
                        if len(procs) < len(grids):
                            start(len(procs))
            finally:
                for fd in pidfds:
                    os.close(fd)
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            outputs = []
            for i, stem in enumerate(stems):
                try:
                    outputs.append(read_grid(f"{stem}.out"))
                except (ValueError, OSError) as exc:
                    raise CodecError(f"{mode} produced an unreadable tensor: {exc}", index=i) from exc
            return outputs

    def decode(self, grids: Sequence[LatentGrid]) -> list[LatentGrid]:
        g = self.granularity
        shapes = [(x.channels, x.height * g, x.width * g) for x in grids]
        return _expect("decode", self._invoke("decode", grids), shapes)

    def encode(self, grids: Sequence[LatentGrid]) -> list[LatentGrid]:
        """Encode grids whose dims are multiples of the granularity."""
        g = self.granularity
        shapes = [(x.channels, x.height // g, x.width // g) for x in grids]
        return _expect("encode", self._invoke("encode", grids), shapes)


def refresh_resize(
    codec, grids: Sequence[LatentGrid], target_height: int, target_width: int
) -> list[LatentGrid]:
    """Resize a batch of clean-signal estimates through decoded space.

    Decodes every grid, resamples each decoded representation bilinearly to
    the target resolution (given in latent units), and encodes them all
    back, i.e. encode(resize(decode(grid))) per grid. With the identity
    codec this reduces to a plain latent resample.
    """
    g = codec.granularity
    return codec.encode([resize_bilinear(d, target_height * g, target_width * g)
                         for d in codec.decode(grids)])
