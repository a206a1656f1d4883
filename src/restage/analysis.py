"""Trace extraction and the statistics used to judge runs.

Nothing here touches the sampler's internals; everything works off
recorded traces and snapshots so reference and candidate runs can come
from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, StatError
from .latent import LatentGrid
from .sampler import RunResult

__all__ = [
    "EnergyTrace",
    "trace_from_run",
    "mean_trace",
    "p_x0_mse_series",
    "monotonicity_stat",
    "z_test_mean_var",
]


@dataclass(frozen=True)
class EnergyTrace:
    """Labelled per-step energies, steps strictly increasing."""

    label: str
    rows: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for i in range(1, len(self.rows)):
            if self.rows[i][0] <= self.rows[i - 1][0]:
                raise ValueError(f"trace {self.label!r}: steps must be strictly increasing")
        for step, energy in self.rows:
            if energy < 0 or not math.isfinite(energy):
                raise ValueError(f"trace {self.label!r}: bad energy {energy} at step {step}")


def trace_from_run(result: RunResult, label: str) -> EnergyTrace:
    """Latent-energy column of a run's trace as an :class:`EnergyTrace`."""
    return EnergyTrace(label=label, rows=tuple((r.step, r.latent_energy) for r in result.trace))


def mean_trace(traces: list[EnergyTrace], label: str) -> EnergyTrace:
    """Stepwise mean of several traces sharing an identical step grid."""
    if not traces:
        raise StatError("no traces to average")
    steps = [s for s, _ in traces[0].rows]
    for t in traces[1:]:
        if [s for s, _ in t.rows] != steps:
            raise ComparisonError(f"trace {t.label!r} has a different step grid")
    stacked = np.array([[e for _, e in t.rows] for t in traces])
    means = stacked.mean(axis=0)
    return EnergyTrace(label=label, rows=tuple(zip(steps, (float(m) for m in means))))


def p_x0_mse_series(
    snapshots: list[tuple[int, LatentGrid]],
) -> list[list[tuple[int, float]]]:
    """Mean squared change between consecutive clean-signal snapshots.

    Each element of a segment is (step, mse) where ``step`` is the later
    snapshot of the pair. A shape change between consecutive snapshots (a
    refresh boundary) starts a new segment, so the result is a list of
    segments; a run at one resolution yields a single segment.
    """
    if len(snapshots) < 2:
        raise StatError(f"need at least 2 snapshots, got {len(snapshots)}")
    segments: list[list[tuple[int, float]]] = []
    current: list[tuple[int, float]] = []
    for (_, prev), (step, cur) in zip(snapshots, snapshots[1:]):
        if cur.shape != prev.shape:
            if current:
                segments.append(current)
            current = []
            continue
        diff = cur.data - prev.data
        current.append((step, float(np.mean(diff * diff))))
    if current:
        segments.append(current)
    return segments


def monotonicity_stat(pairs: list[tuple[float, float]]) -> float:
    """Kendall rank correlation with tie correction (the tau-b form).

    ``pairs`` are (setting, response) points, e.g. (omega, mean energy).
    Returns +1.0 only for a strictly increasing response, -1.0 only for a
    strictly decreasing one; ties reduce the magnitude.
    """
    n = len(pairs)
    if n < 3 or len({x for x, _ in pairs}) < 3:
        raise StatError("need at least 3 points with 3 distinct settings")
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pairs[j][0] - pairs[i][0]
            dy = pairs[j][1] - pairs[i][1]
            prod = dx * dy
            if prod > 0:
                concordant += 1
            elif prod < 0:
                discordant += 1
    n0 = n * (n - 1) // 2

    def tie_pairs(values) -> int:
        counts: dict[float, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return sum(c * (c - 1) // 2 for c in counts.values())

    n1 = tie_pairs(x for x, _ in pairs)
    n2 = tie_pairs(y for _, y in pairs)
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0:
        raise StatError("all settings or all responses are tied")
    return (concordant - discordant) / denom


def z_test_mean_var(
    samples: np.ndarray, expected_mean: float, expected_var: float
) -> tuple[float, float]:
    """Location z-score and variance ratio of a sample against a reference.

    Returns (z_mean, var_ratio) with
    z_mean = (sample_mean - expected_mean) / sqrt(expected_var / n) and
    var_ratio = unbiased sample variance / expected_var. Requires at least
    10^4 samples so the 4-sigma conventions used by the verification suite
    are meaningful.
    """
    data = np.asarray(samples, dtype=np.float64).ravel()
    if data.size < 10_000:
        raise StatError(f"need at least 10000 samples, got {data.size}")
    if not expected_var > 0:
        raise StatError(f"expected variance must be positive, got {expected_var}")
    z = (float(data.mean()) - expected_mean) / math.sqrt(expected_var / data.size)
    ratio = float(data.var(ddof=1)) / expected_var
    return z, ratio
