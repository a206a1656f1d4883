"""The two steps of an energy curve: one seed's energy column, and the mean over seeds.

Neither checks the energies again: :func:`restage.sampler.run` has already
failed any step whose energy is not finite, and the seeds of one ``run`` call
share one timeline, so their columns line up step for step.
"""

from __future__ import annotations

import numpy as np

from .sampler import RunResult

__all__ = ["trace_from_run", "mean_trace"]


def trace_from_run(result: RunResult) -> list[float]:
    """The latent energy entering each step of one seed's run, in step order."""
    return [r.latent_energy for r in result.trace]


def mean_trace(traces: list[list[float]]) -> np.ndarray:
    """Stepwise mean of several seeds' energy columns."""
    return np.array(traces).mean(axis=0)
