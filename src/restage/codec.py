"""Latent <-> decoded-space codecs and the refresh resize path.

A codec maps a batch of latents to decoded representations and back:
``decode`` and ``encode`` take one read-only (B, C, H, W) float64 array and
return one, row by row. The identity codec returns its input; the external
codec shells out to a user-supplied command (e.g. a real autoencoder
wrapper) speaking a small file protocol.

External protocol: the command is invoked once per grid as

    <command...> <mode> <input-file> <output-file>

with mode ``decode`` or ``encode``; both files are RHRT tensors of rank 3.
A non-zero exit status is an error and the command's output is passed
through in the diagnostic. Decoding must scale height and width by the
codec's declared granularity and preserve the channel count; encoding must
invert that scaling. Each call must be a pure file-to-file map, since the
calls of a batch run concurrently (``docs/DECISIONS.md`` entry 8). A latent
resolution need not be a multiple of the granularity: ``refresh_resize``
resizes the decoded batch to the target times the granularity, so every
batch it encodes divides evenly.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CodecError
from .latent import LatentGrid, resize_bilinear
from .tensorfile import read_grid, write_grid

__all__ = ["IdentityCodec", "ExternalCodec", "refresh_resize"]


class IdentityCodec:
    """Decoded space equals latent space; granularity 1."""

    granularity = 1

    def decode(self, batch: np.ndarray) -> np.ndarray:
        return batch

    def encode(self, batch: np.ndarray) -> np.ndarray:
        return batch


class ExternalCodec:
    """Codec backed by an external command speaking the file protocol above.

    A batch runs one command per row, at most one per CPU this process may
    use (``os.sched_getaffinity``) at a time, starting the next as any one
    exits, and reads the outputs into one array once all have exited,
    checking each output's shape as it is read. A failed call or an
    interrupt (Ctrl-C, or SIGTERM, which the command-line interface turns
    into ``SystemExit``) kills and reaps the running commands and removes
    the batch's files before the error propagates.

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

    def _invoke(self, mode: str, batch: np.ndarray) -> np.ndarray:
        import select
        import signal
        import subprocess
        import threading  # imported here so identity-codec runs do not load them

        _, c, h, w = batch.shape
        g = self.granularity
        shape = (c, h * g, w * g) if mode == "decode" else (c, h // g, w // g)
        width = len(os.sched_getaffinity(0))
        procs = []
        pidfds: dict[int, int] = {}  # an open pidfd -> the batch index of its command
        poller = select.poll()
        with tempfile.TemporaryDirectory(prefix="codec-") as tmp:
            stems = [Path(tmp, str(i)) for i in range(len(batch))]
            for stem, row in zip(stems, batch):
                write_grid(f"{stem}.in", row)

            def start(i: int) -> None:
                with open(f"{stems[i]}.log", "wb") as log:
                    try:
                        procs.append(subprocess.Popen(
                            [*self._argv, mode, f"{stems[i]}.in", f"{stems[i]}.out"],
                            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                        ))
                    except OSError as exc:
                        raise CodecError(f"{mode} command could not start: {exc}", index=i) from exc
                fd = os.pidfd_open(procs[i].pid)
                pidfds[fd] = i
                poller.register(fd, select.POLLIN)

            # a stop that lands on another thread (one of OpenBLAS's) wakes the
            # poll through this pipe, and its handler runs at the next bytecode;
            # handlers run, and the wakeup fd is set, on the main thread only
            wake, woken = os.pipe2(os.O_NONBLOCK | os.O_CLOEXEC)
            poller.register(wake, select.POLLIN)
            main = threading.current_thread() is threading.main_thread()
            previous = signal.set_wakeup_fd(woken) if main else None
            try:
                for i in range(min(width, len(batch))):
                    start(i)
                # take commands as they exit, whichever comes first, and start
                # the next queued one in each one's place, so that at most
                # `width` run at once and a failure is seen as soon as it exits
                while pidfds:
                    for fd, _ in poller.poll():
                        if fd == wake:  # what a read leaves wakes the next poll
                            os.read(wake, 512)
                            continue
                        i = pidfds.pop(fd)
                        poller.unregister(fd)
                        os.close(fd)
                        status = procs[i].wait()
                        if status != 0:
                            log = Path(f"{stems[i]}.log").read_text(errors="replace").strip() or "(no output)"
                            raise CodecError(f"{mode} command exited with status {status}: {log}", index=i)
                        if len(procs) < len(batch):
                            start(len(procs))
            finally:
                if main:
                    signal.set_wakeup_fd(previous)
                for fd in (*pidfds, wake, woken):
                    os.close(fd)
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            out = np.empty((len(batch), *shape))
            for i, stem in enumerate(stems):
                try:
                    grid = read_grid(f"{stem}.out")
                except (ValueError, OSError) as exc:
                    raise CodecError(f"{mode} produced an unreadable tensor: {exc}", index=i) from exc
                if grid.shape != shape:
                    raise CodecError(f"{mode} returned shape {grid.shape}, expected {shape}", index=i)
                out[i] = grid
        out.setflags(write=False)
        return out

    def decode(self, batch: np.ndarray) -> np.ndarray:
        return self._invoke("decode", batch)

    def encode(self, batch: np.ndarray) -> np.ndarray:
        """Encode a batch whose height and width are multiples of the granularity."""
        return self._invoke("encode", batch)


def refresh_resize(codec, batch: np.ndarray, target_height: int, target_width: int) -> np.ndarray:
    """Resize a batch of clean-signal estimates through decoded space.

    Decodes the read-only (B, C, H, W) batch, resamples it bilinearly to the
    target resolution (given in latent units) as it is, marks the resized
    batch read-only, as every codec input is, and encodes it back into one
    read-only array. With the identity codec this reduces to a plain latent
    resample.
    """
    g = codec.granularity
    resized = resize_bilinear(LatentGrid(codec.decode(batch)), target_height * g, target_width * g).data
    resized.setflags(write=False)
    return codec.encode(resized)
