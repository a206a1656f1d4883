"""Workload definitions and the seeded input generator.

Each workload is one ``restage`` CLI command run repeatedly on inputs this
module generates from the workload seed: an INI config, and where the
workload needs them, a rank-4 RHRT point cloud and the codec stand-in. The
program receives only those files. Every command of a run writes into its
own output directory and takes its base seed from ``command_seed``, so
consecutive commands sample different trajectories of the same inputs.
"""

from __future__ import annotations

import shlex
import shutil
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
STAND_IN = BENCH_DIR / "stand_in_codec.py"

CHANNELS = 4
POINT_SIZE = 16
CURVE_LABELS = (
    "baseline",
    "rectified",
    "latent-resize",
    "snr-corrected",
    "native-baseline",
    "rectified-no-rect",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run_count`` seeds per command; ``sampling_runs`` is what a command
    counts towards ``runs_per_s`` (seeds, or label-seed pairs for
    ``energy-curve``).
    """

    name: str
    command: str
    preset: str
    resolutions: tuple[tuple[int, int], ...]
    prior: str  # "dataset" or "gaussian"
    run_count: int
    conditional: bool = False
    snapshots: bool = False
    external_codec: bool = False
    labels: tuple[str, ...] = ()
    num_steps: int = 50

    @property
    def sampling_runs(self) -> int:
        return self.run_count * max(1, len(self.labels))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="posterior-staged",
            command="sample",
            preset="paper-2048",
            resolutions=((16, 16), (32, 32)),
            prior="dataset",
            conditional=True,
            run_count=24,
        ),
        Workload(
            name="snapshot-io",
            command="sample",
            preset="paper-2048",
            resolutions=((128, 128), (256, 256)),
            prior="gaussian",
            snapshots=True,
            run_count=4,
        ),
        Workload(
            name="energy-sweep",
            command="energy-curve",
            preset="paper-2048",
            resolutions=((16, 16), (32, 32)),
            prior="dataset",
            labels=CURVE_LABELS,
            run_count=2,
        ),
        Workload(
            name="codec-external",
            command="sample",
            preset="paper-4096",
            resolutions=((8, 8), (16, 16), (32, 32)),
            prior="gaussian",
            external_codec=True,
            run_count=8,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What the generator wrote for one workload, plus the values the checks need."""

    workload: Workload
    config: Path
    base_seed: int
    points: np.ndarray | None  # float32 (N, C, H, W) as written, for dataset priors
    mean_value: float
    variance: float

    def command_seed(self, index: int) -> int:
        """Base seed of the index-th command in a run."""
        return self.base_seed + index * self.workload.run_count


def write_rhrt(path: Path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f4")
    header = b"RHRT" + struct.pack(f"<II{arr.ndim}I", 1, arr.ndim, *arr.shape)
    path.write_bytes(header + arr.tobytes())


def read_rhrt(path: Path) -> np.ndarray:
    """Parse an RHRT file strictly; raises ValueError on any malformation."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != b"RHRT":
        raise ValueError(f"{path}: bad magic or truncated header")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != 1 or not 1 <= ndim <= 8 or len(blob) < 12 + 4 * ndim:
        raise ValueError(f"{path}: bad version {version} or rank {ndim}")
    dims = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = int(np.prod(dims))
    if len(blob) != 12 + 4 * ndim + 4 * count:
        raise ValueError(f"{path}: payload length does not match dims {dims}")
    return np.frombuffer(blob, dtype="<f4", offset=12 + 4 * ndim).reshape(dims)


def clustered_points(rng: np.random.Generator) -> np.ndarray:
    """64 points at 4x16x16 in 16 clusters, ordered so the CLI's alternating labels fit.

    Each cluster holds a centre and a slightly rotated twin (class 0, even
    indices) and two copies of the centre shrunk to 93% and 87% of its
    radius (class 1, odd indices). Every centre has elementwise RMS 0.06,
    so late in a run the posterior locks onto one cluster and a class-0
    condition pushes outward against that cluster's inner class-1 points.
    """
    shape = (CHANNELS, POINT_SIZE, POINT_SIZE)
    norm = 0.06 * np.sqrt(np.prod(shape))
    theta = 0.15
    points = []
    for _ in range(16):
        g = rng.normal(size=shape)
        g *= norm / np.linalg.norm(g)
        t = rng.normal(size=shape)
        t -= g * float((t * g).sum() / (g * g).sum())
        t *= norm / np.linalg.norm(t)
        points += [g, 0.93 * g, np.cos(theta) * g + np.sin(theta) * t, 0.87 * g]
    return np.stack(points).astype(np.float32)


def _config_text(w: Workload, seed: int, mean_value: float, variance: float, codec_cmd: str) -> str:
    res = ", ".join(f"{h}x{w_}" for h, w_ in w.resolutions)
    lines = [
        "[schedule]",
        f"num_steps = {w.num_steps}",
        "",
        "[ladder]",
        f"preset = {w.preset}",
        f"resolutions = {res}",
        "",
        "[denoiser]",
    ]
    if w.prior == "dataset":
        lines += ["kind = dataset", "path = points.rhrt", f"conditional = {str(w.conditional).lower()}"]
    else:
        lines += ["kind = gaussian", f"mean_value = {mean_value!r}", f"variance = {variance!r}"]
    if w.external_codec:
        lines += ["", "[codec]", "kind = external", f"command = {codec_cmd}", "granularity = 2"]
    lines += [
        "",
        "[run]",
        "variant = rectified",
        f"seed = {seed}",
        f"run_count = {w.run_count}",
        f"snapshot_steps = {'all' if w.snapshots else ''}",
    ]
    if w.labels:
        lines += ["", "[energy]", f"variants = {', '.join(w.labels)}"]
    return "\n".join(lines) + "\n"


def generate(w: Workload, workload_seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs into ``directory`` (which must be empty or absent)."""
    directory.mkdir(parents=True, exist_ok=False)
    rng = np.random.default_rng([workload_seed, sum(w.name.encode())])
    base_seed = int(rng.integers(0, 2**40))
    mean_value = float(np.round(rng.uniform(0.1, 0.4), 6))
    variance = float(np.round(rng.uniform(1.0, 2.0), 6))
    points = None
    if w.prior == "dataset":
        points = clustered_points(rng)
        write_rhrt(directory / "points.rhrt", points)
    codec_cmd = ""
    if w.external_codec:
        script = directory / STAND_IN.name
        shutil.copyfile(STAND_IN, script)
        codec_cmd = f"{shlex.quote(sys.executable)} -S {shlex.quote(str(script))}"
    config = directory / "experiment.ini"
    config.write_text(_config_text(w, base_seed, mean_value, variance, codec_cmd), encoding="utf-8")
    return Inputs(w, config, base_seed, points, mean_value, variance)
