"""Host-speed correction for timings on a shared host.

On a shared host the same work takes from 1.2x to 1.75x its best time
(measured on a 2-vCPU Xeon VM), and the factor drifts over seconds to
minutes, which swamps run-to-run comparisons.  ``yardstick`` times a fixed piece of numpy and Python work
like dpss's inner loops; ``scale`` turns yardstick timings taken around a
measurement into the factor that converts its wall seconds to seconds at
the host speed where the yardstick takes ``REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.010
_X = np.random.default_rng(0).standard_normal((1000, 5))
_T = np.full(5, 0.1)


def yardstick() -> float:
    """Median of three timings of the fixed yardstick work, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(150):
            p = 1.0 / (1.0 + np.exp(-(_X @ _T)))
            g = (p[:, None] * _X).mean(axis=0)
            np.linalg.solve((_X.T * (p * (1.0 - p))) @ _X + np.eye(5), g)
        acc = 0
        for i in range(20000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(*yardsticks: float) -> float:
    """Factor from wall seconds to seconds at the reference host speed."""
    return REF_S / statistics.mean(yardsticks)
