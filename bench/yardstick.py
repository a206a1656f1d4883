"""Fixed calibration work: its wall time measures how fast the host runs right now.

    python yardstick.py

On a shared host the speed of one core drifts by tens of percent over
minutes, which moves every wall-clock metric the same way. The benchmark
starts this script after each command, in the same environment as the
command, and scales its time metrics by the run's median yardstick time
(see ``run.py``). The script does the kinds of work the workloads do: an
interpreter start and a numpy import, a point-set posterior on small arrays,
elementwise passes over a large array, and a pure-Python loop. It never
imports restage, so no change to the program moves it.

Changing this file rescales every calibrated metric; treat it as part of
the benchmark's definition.
"""

import numpy as np

rng = np.random.default_rng(0)
points = rng.standard_normal((64, 4, 32, 32))
x = rng.standard_normal((4, 32, 32))
for _ in range(60):
    diffs = x[None] - 0.5 * points
    weights = np.exp(-np.sum(diffs * diffs, axis=(1, 2, 3)) / 1000.0)
    x = x + 1e-9 * np.tensordot(weights / weights.sum(), points, axes=(0, 0))
big = rng.standard_normal((4, 256, 256))
for _ in range(40):
    big = big * 0.999 + 0.001
total = 0
for i in range(100_000):
    total += i * i
