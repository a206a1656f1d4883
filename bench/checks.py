"""Correctness checks on a command's outputs, and a small independent reference.

Two checks run on the outputs of a command:

* ``check_files``: every expected file exists and parses, trace and curve
  rows number ``num_steps``, tensor shapes match their stage and every value
  is finite. A sampling run whose files fail counts as failed.
* ``check_reference``: one seed (for ``energy-curve``, every curve) is
  recomputed here and compared with what the program wrote. The reference
  implements the schedule, the ladder, both posteriors (the Gaussian closed
  form and the point-set posterior in its direct-difference form), guidance,
  the DDIM update, the boundary refresh and the codec stand-in's arithmetic
  itself; it borrows only restage's bilinear resize and seeded streams.

Tolerances are fixed by the output precision, not by observed differences:
a tensor element may differ from the reference by two float32 units in the
last place at the tensor's scale (2**-22 * max|ref|), and a CSV value by two
half-units of its ninth significant digit at the column's scale
(1e-8 * max|ref|). Both admit the 1e-13-level changes that a different
floating-point reduction order produces.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from restage.latent import LatentGrid, SeededRng, resize_bilinear

from workloads import CHANNELS, Inputs, Workload, read_rhrt

TENSOR_TOL = 2.0**-22
CSV_TOL = 1e-8

BETA_START, BETA_END, TRAIN_STEPS = 0.00085, 0.012, 1000
# t_min, t_max, n_stages, m_t, omega_min, omega_max, m_omega
PRESETS = {
    "paper-2048": (40, 50, 2, 1.0, 5.0, 30.0, 1.0),
    "paper-4096": (40, 50, 3, 0.5, 5.0, 50.0, 0.5),
}
TRACE_HEADER = "step,train_t,omega,latent_energy,p_x0_energy,refreshed"
CURVE_HEADER = "label,step,mean_energy"


# ---------------------------------------------------------------- reference


def timeline(num_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Visited training timesteps and their alpha_bar, plus the trailing 1.0."""
    root = np.linspace(math.sqrt(BETA_START), math.sqrt(BETA_END), TRAIN_STEPS)
    alpha_bar = np.cumprod(1.0 - root**2)
    steps = np.arange(num_steps)
    train_t = ((num_steps - 1 - steps) * (TRAIN_STEPS - 1) * 2 + (num_steps - 1)) // (2 * (num_steps - 1))
    return train_t, np.append(alpha_bar[train_t], 1.0)


def stages(preset: str, resolutions) -> list[tuple[int, int, int, float]]:
    """(first_step, height, width, omega) per stage of a preset ladder."""
    t_min, t_max, n, m_t, w_min, w_max, m_w = PRESETS[preset]
    firsts = [0] + [math.floor((t_max - t_min) * ((i - 1) / n) ** m_t + t_min) for i in range(1, n)]
    omegas = [(w_max - w_min) * (i / (n - 1)) ** m_w + w_min for i in range(n)]
    return [(f, h, w, om) for f, (h, w), om in zip(firsts, resolutions, omegas)]


class Posterior:
    """eps prediction under the workload's prior, at any resolution."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._points: dict[tuple[int, int], np.ndarray] = {}
        if inputs.points is not None:
            native = inputs.points.astype(np.float64)
            self._points[native.shape[2:]] = native
            self.labels = np.arange(len(native)) % 2

    def points(self, h: int, w: int) -> np.ndarray:
        if (h, w) not in self._points:
            native = self._points[self.inputs.points.shape[2:]]
            self._points[(h, w)] = np.stack([resize_bilinear(LatentGrid(p), h, w).data for p in native])
        return self._points[(h, w)]

    def eps(self, x: np.ndarray, ab: float, conditional: bool) -> np.ndarray:
        if self.inputs.points is None:
            h0, w0 = self.inputs.workload.resolutions[0]
            stored = np.full((CHANNELS, h0, w0), self.inputs.mean_value)
            mean = stored if x.shape == stored.shape else np.broadcast_to(
                stored.mean(axis=(1, 2))[:, None, None], x.shape
            )
            v = self.inputs.variance
            x0 = mean + math.sqrt(ab) * v / (ab * v + 1.0 - ab) * (x - math.sqrt(ab) * mean)
        else:
            pts = self.points(*x.shape[1:])
            if conditional:
                pts = pts[self.labels == 0]
            sq = np.array([np.sum((x - math.sqrt(ab) * p) ** 2) for p in pts])
            weights = np.exp(-(sq - sq.min()) / (2.0 * (1.0 - ab)))
            x0 = np.tensordot(weights / weights.sum(), pts, axes=(0, 0))
        return (x - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)


def _f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def refresh_resize(inputs: Inputs, p_x0: np.ndarray, h: int, w: int) -> np.ndarray:
    """Boundary resize through the workload's codec: identity, or the 2x stand-in over float32 files."""
    if not inputs.workload.external_codec:
        return resize_bilinear(LatentGrid(p_x0), h, w).data
    decoded = np.repeat(np.repeat(_f32(p_x0), 2, axis=1), 2, axis=2)
    r = _f32(resize_bilinear(LatentGrid(decoded), 2 * h, 2 * w).data)
    return _f32((r[:, 0::2, 0::2] + r[:, 0::2, 1::2] + r[:, 1::2, 0::2] + r[:, 1::2, 1::2]) * 0.25)


def reference_run(inputs: Inputs, seed: int, label: str = "rectified"):
    """Trace rows and per-step p_x0 of one run, for a variant or energy-curve label."""
    w = inputs.workload
    train_t, levels = timeline(w.num_steps)
    denoiser_levels = levels  # the denoiser reads the timeline's own level at each step
    plan = stages(w.preset, w.resolutions)
    boundary = "rectified"
    if label in ("baseline", "native-baseline"):
        h, wd = w.resolutions[-1] if label == "native-baseline" else w.resolutions[0]
        plan = [(0, h, wd, plan[0][3])]
    elif label == "snr-corrected":
        (bh, bw), (th, tw) = w.resolutions[0], w.resolutions[-1]
        gamma = ((th / bh) * (tw / bw)) ** 2
        levels = levels / (gamma - (gamma - 1.0) * levels)
        plan = [(0, th, tw, plan[0][3])]
    elif label == "rectified-no-rect":
        plan = [(f, h, wd, plan[0][3]) for f, h, wd, _ in plan]
    elif label == "latent-resize":
        boundary = "latent"
    posterior = Posterior(inputs)
    rng = SeededRng(seed)
    by_first = {f: (i, h, wd, om) for i, (f, h, wd, om) in enumerate(plan)}
    _, h, wd, omega = by_first[0]
    x = rng.stream("init").standard_normal((CHANNELS, h, wd))
    rows, snapshots, p_x0 = [], [], None
    for step in range(w.num_steps):
        refreshed = step > 0 and step in by_first
        if refreshed:
            index, h, wd, omega = by_first[step]
            if boundary == "rectified":
                eps = rng.stream("refresh", index).standard_normal((CHANNELS, h, wd))
                ab = levels[step]
                x = math.sqrt(ab) * refresh_resize(inputs, p_x0, h, wd) + math.sqrt(1.0 - ab) * eps
            else:
                x = resize_bilinear(LatentGrid(x), h, wd).data
        ab, ab_next = float(levels[step]), float(levels[step + 1])
        eps_u = posterior.eps(x, denoiser_levels[step], False)
        eps_c = posterior.eps(x, denoiser_levels[step], True) if w.conditional else eps_u
        guided = eps_u + omega * (eps_c - eps_u)
        p_x0 = (x - math.sqrt(1.0 - ab) * guided) / math.sqrt(ab)
        rows.append((step, int(train_t[step]), omega, float(np.mean(x * x)), float(np.mean(p_x0 * p_x0)), refreshed))
        snapshots.append(p_x0)
        x = math.sqrt(ab_next) * p_x0 + math.sqrt(1.0 - ab_next) * guided
    return rows, snapshots


# ------------------------------------------------------------------ checks


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{path.name}: bad header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def _parse_trace(path: Path, num_steps: int) -> list[tuple]:
    rows = []
    for cells in _read_csv(path, TRACE_HEADER):
        step, train_t, omega, e_in, e_p, flag = cells
        if flag not in ("true", "false"):
            raise ValueError(f"{path.name}: bad refreshed flag {flag!r}")
        values = (float(omega), float(e_in), float(e_p))
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path.name}: non-finite value at step {step}")
        rows.append((int(step), int(train_t), *values, flag == "true"))
    if [r[0] for r in rows] != list(range(num_steps)):
        raise ValueError(f"{path.name}: expected steps 0..{num_steps - 1}")
    return rows


def _parse_curves(path: Path, w: Workload) -> dict[str, list[float]]:
    curves: dict[str, list[float]] = {}
    for label, step, energy in _read_csv(path, CURVE_HEADER):
        value = float(energy)
        if not (math.isfinite(value) and value >= 0) or int(step) != len(curves.get(label, [])):
            raise ValueError(f"{path.name}: bad row {label},{step},{energy}")
        curves.setdefault(label, []).append(value)
    if list(curves) != list(w.labels) or any(len(c) != w.num_steps for c in curves.values()):
        raise ValueError(f"{path.name}: expected {w.num_steps} rows for each of {w.labels}")
    return curves


def _tensor(path: Path, shape) -> np.ndarray:
    arr = read_rhrt(path)
    if arr.shape != tuple(shape) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{path.name}: shape {arr.shape}, expected {shape}, or non-finite values")
    return arr


def _stage_shape(w: Workload, step: int) -> tuple[int, int, int]:
    h, wd = [(h, wd) for f, h, wd, _ in stages(w.preset, w.resolutions) if f <= step][-1]
    return (CHANNELS, h, wd)


def check_files(inputs: Inputs, out_dir: Path, first_seed: int) -> int:
    """Number of sampling runs whose output files are missing or malformed."""
    w = inputs.workload
    if w.labels:
        try:
            _parse_curves(out_dir / "energy_curves.csv", w)
        except (OSError, ValueError):
            return w.sampling_runs
        return 0
    failed = 0
    for seed in range(first_seed, first_seed + w.run_count):
        try:
            _parse_trace(out_dir / f"trace_{seed}.csv", w.num_steps)
            _tensor(out_dir / f"final_{seed}.rhrt", _stage_shape(w, w.num_steps - 1))
            if w.snapshots:
                for step in range(w.num_steps):
                    _tensor(out_dir / f"snapshot_{seed}_{step}.rhrt", _stage_shape(w, step))
        except (OSError, ValueError):
            failed += 1
    return failed


def _close(got, want, tol: float) -> bool:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return bool(np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)))


def check_reference(inputs: Inputs, out_dir: Path, seed: int) -> int:
    """Recompute one seed (every curve for ``energy-curve``); failed runs on mismatch."""
    w = inputs.workload
    if w.labels:
        try:
            curves = _parse_curves(out_dir / "energy_curves.csv", w)
        except (OSError, ValueError):
            return w.sampling_runs
        failed = 0
        for label in w.labels:
            traces = [reference_run(inputs, s, label)[0] for s in range(seed, seed + w.run_count)]
            want = np.mean([[r[3] for r in rows] for rows in traces], axis=0)
            failed += 0 if _close(curves[label], want, CSV_TOL) else w.run_count
        return failed
    rows, snapshots = reference_run(inputs, seed)
    try:
        got = _parse_trace(out_dir / f"trace_{seed}.csv", w.num_steps)
        tensors = [(_tensor(out_dir / f"final_{seed}.rhrt", snapshots[-1].shape), snapshots[-1])]
        if w.snapshots:
            tensors += [
                (_tensor(out_dir / f"snapshot_{seed}_{s}.rhrt", snapshots[s].shape), snapshots[s])
                for s in range(w.num_steps)
            ]
    except (OSError, ValueError):
        return 1
    exact = all(g[0:2] == r[0:2] and g[5] == r[5] for g, r in zip(got, rows))
    columns = all(_close([g[c] for g in got], [r[c] for r in rows], CSV_TOL) for c in (2, 3, 4))
    arrays = all(_close(g, r, TENSOR_TOL) for g, r in tensors)
    return 0 if exact and columns and arrays else 1
