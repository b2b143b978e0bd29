"""Summary statistics with the benchmark's rules spelled out.

- A tail percentile is reported only where at least ``MIN_BEYOND``
  samples lie beyond it; :func:`tail_percentile` picks the highest of
  the standard ones a sample supports.
- Open-loop latency runs from each utterance's *due* time; the
  generator's own lateness (send start minus due) is accounted
  separately so a stalled generator is visible, not hidden.
- Regression bounds are relative to the baseline, except where the
  baseline can be zero: those metrics carry an absolute bound, so a
  0 → anything change is gated instead of slipping through a relative
  test that divides by zero.
"""

from __future__ import annotations

import math

import numpy as np

MIN_BEYOND = 10
STANDARD_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def samples_beyond(n: int, percentile: float) -> int:
    """Samples strictly above the ``percentile`` of ``n`` (nearest-rank)."""
    return n - math.ceil(n * percentile / 100.0)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest standard percentile with ``min_beyond`` samples past it."""
    for p in STANDARD_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (NaN for an empty sample)."""
    arr = np.asarray(list(values), dtype=float)
    return float(np.percentile(arr, p)) if arr.size else float("nan")


def open_loop_accounting(due, sent, done, limit_ms: float) -> dict:
    """Latency and lateness of one open-loop phase.

    ``due``, ``sent`` and ``done`` are per-utterance clock readings in
    seconds (``done`` is ``None`` for an utterance that never got its
    decision).  Latency is ``done - due``: time the utterance spent
    waiting for a free connection or a stalled generator counts against
    it.  Lateness is ``sent - due``.  A missing decision misses the
    limit.
    """
    latencies = [(d - u) * 1000.0 for u, d in zip(due, done) if d is not None]
    lateness = [max(s - u, 0.0) * 1000.0 for u, s in zip(due, sent) if s is not None]
    n = len(due)
    misses = sum(1 for u, d in zip(due, done) if d is None or (d - u) * 1000.0 > limit_ms)
    return {
        "n": n,
        "latencies_ms": latencies,
        "lateness_ms": lateness,
        "lateness_p50_ms": percentile(lateness, 50) if lateness else 0.0,
        "lateness_p95_ms": percentile(lateness, 95) if lateness else 0.0,
        "lateness_max_ms": max(lateness) if lateness else 0.0,
        "slo_miss_frac": misses / n if n else 0.0,
    }


TAIL = 80.0
"""The reported tail percentile: the highest standard one that a run's 60
open-loop samples support (12 beyond it)."""

# Reported on stderr and in --report, and gated by ``perfbench.compare``,
# but kept out of the result line: name: (unit, better, relative bound).
# The open-loop latencies rest on 60 samples (about 40 for rejects) whose
# queueing depends on how the Poisson arrivals pair utterances on two
# connections, and ``batch_throughput_utt_s`` on three half-second calls;
# on the reference machine their run-to-run spread (0.15-0.7, quartile
# distance over median) is wider than the largest bound the result line
# may carry (0.25).  The last two can read 0, so they are gated on
# absolute bounds (ABSOLUTE_BOUNDS below; relative bound None).
REPORTED = {
    "decision_p50_ms": ("ms", "lower", 0.4),
    f"decision_p{TAIL:g}_ms": ("ms", "lower", 0.5),
    "reject_p50_ms": ("ms", "lower", 0.5),
    "batch_throughput_utt_s": ("1/s", "higher", 0.4),
    "failed_frac": ("frac", "lower", None),
    "slo_miss_frac": ("frac", "lower", None),
}

# Metrics whose baseline can legitimately be zero, gated on an absolute
# worsening instead of a share of the baseline.
ABSOLUTE_BOUNDS = {
    "failed_frac": 0.0,
    "slo_miss_frac": 0.02,
    "obs.audit_ms_per_utt": 0.5,
    "obs.monitor_ms_per_utt": 0.5,
    "obs.audit_records_per_utt": 0.0,
}


def worse_by(baseline: float, current: float, better: str) -> float:
    """How much worse ``current`` is than ``baseline`` (negative: better)."""
    return current - baseline if better == "lower" else baseline - current


def check_bound(
    name: str, baseline: float, current: float, better: str, rel_bound: float | None
) -> str | None:
    """``None`` when within bound, else a one-line description of the regression.

    Metrics in :data:`ABSOLUTE_BOUNDS` — and any metric whose baseline
    is zero — use the absolute bound (0 when none is listed); the rest
    may worsen by ``rel_bound`` of the baseline.
    """
    delta = worse_by(baseline, current, better)
    if name in ABSOLUTE_BOUNDS or baseline == 0 or rel_bound is None:
        bound = ABSOLUTE_BOUNDS.get(name, 0.0)
        if delta > bound:
            return (
                f"{name}: {baseline:g} -> {current:g} worsens by {delta:g} "
                f"(> {bound:g} absolute)"
            )
        return None
    if delta > rel_bound * abs(baseline):
        return (
            f"{name}: {baseline:g} -> {current:g} worsens by "
            f"{delta / abs(baseline):.1%} (> {rel_bound:.0%})"
        )
    return None
