"""Machine-speed calibration, so that timings hold still on a shared host.

On the 2-core VM this benchmark was built on, the CPU time of a fixed
piece of work drifts by up to 1.7x over a few minutes while nothing else
runs in the VM: a desk seed took from 0.23 s to 0.52 s, with wall time
equal to CPU time and no steal. Medians of 30 s runs followed that drift
(an interquartile range of 30-40% of the median across ten runs). Each
seed of a CPU-bound workload is therefore bracketed by a fixed
calibration workload that does not touch the package, and reported as

    wall * REFERENCE_S / mean(calibration before, calibration after)

that is, in seconds of a host running the calibration at its reference
speed. Over 20 s windows this cut the spread of desk seed medians from
30% to 5%.
"""
from __future__ import annotations

import gc
import time

import numpy as np

#: Seconds per calibration chunk on the unloaded 2-core Intel Xeon VM.
REFERENCE_S = 0.02

#: Shortest calibration, and its share of the item it brackets.
MIN_SECONDS = 0.05
SHARE = 0.03


def _chunk() -> None:
    # Interpreter work (dicts, strings) and small vectorised numpy work,
    # the two kinds the package spends its time on.
    counts: dict = {}
    for i in range(30_000):
        key = str(i % 977)
        counts[key] = counts.get(key, 0) + i
    a = np.arange(20_000, dtype=float)
    for _ in range(100):
        a = np.sqrt(a * 1.0001 + 1.0)


def chunk_seconds(min_seconds: float) -> float:
    """Seconds per calibration chunk, timed over at least ``min_seconds``.

    The garbage collector is off while it runs, so that the size of the
    program's heap does not change the calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        n, t0 = 0, time.perf_counter()
        while True:
            _chunk()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                return elapsed / n
    finally:
        if enabled:
            gc.enable()


def to_reference(wall: float, before: float, after: float) -> float:
    """``wall`` in reference seconds, from the calibrations around it."""
    return wall * REFERENCE_S * 2 / (before + after)


class Bracket:
    """Calibrations between consecutive timed items."""

    def __init__(self):
        self._last = chunk_seconds(MIN_SECONDS)

    def scale(self, wall: float) -> float:
        """Calibrate again and return ``wall`` in reference seconds."""
        before = self._last
        self._last = chunk_seconds(max(MIN_SECONDS, SHARE * wall))
        return to_reference(wall, before, self._last)
