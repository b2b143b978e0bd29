"""Machine-speed calibration: a fixed probe timed inside each run.

The reference machine is a 2-core VM whose neighbours change its speed
by 20-40 % for seconds to minutes at a time; every wall-clock metric
moves with it.  :func:`probe_ms` times a fixed piece of work shaped like
the gate's own (NumPy FFT round trips plus an interpreter-bound loop)
that no change to ``repro`` can affect.  Each run probes both the
gateway process and this one between measurement segments, and reports
its wall-clock metrics scaled by ``PROBE_REF_MS / probe`` — milliseconds
(or rates) as the reference machine runs them when quiet.  The raw
values and the probe times are in the stderr report and ``--report``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_MS = 27.0
"""The probe's median time on the reference machine when quiet."""

PROBE_REPEATS = 3

_DATA = np.random.default_rng(0).standard_normal((4, 36000))


def _probe_once() -> float:
    started = time.perf_counter()
    for _ in range(16):
        np.fft.irfft(np.fft.rfft(_DATA, axis=1), axis=1)
    total = 0
    for k in range(25000):
        total += k * k
    return (time.perf_counter() - started) * 1000.0


def probe_ms() -> float:
    """Median of :data:`PROBE_REPEATS` probes, in ms."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def speed(probes: list[float]) -> float:
    """Reference-quiet time over this run's time for the same work (< 1: slow)."""
    return PROBE_REF_MS / statistics.median(probes)
