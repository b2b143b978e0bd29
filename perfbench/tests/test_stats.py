"""Percentile rule, open-loop accounting and zero-baseline bounds.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import pytest

from perfbench.stats import (
    check_bound,
    open_loop_accounting,
    samples_beyond,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(200, 95.0), (199, 90.0), (100, 90.0), (99, 80.0), (60, 80.0), (50, 80.0), (49, 75.0),
     (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_samples_beyond_counts_nearest_rank():
    values = list(range(1, 101))
    p90 = sorted(values)[math.ceil(0.9 * len(values)) - 1]
    assert samples_beyond(100, 90.0) == sum(1 for v in values if v > p90) == 10


def test_open_loop_latency_runs_from_due_time_and_lateness_is_separate():
    due = [0.0, 0.1, 0.2, 0.3]
    # The generator stalled: the second utterance went out 150 ms late
    # and everything after it queued behind the stall.
    sent = [0.0, 0.25, 0.30, 0.35]
    done = [0.05, 0.40, 0.45, None]
    out = open_loop_accounting(due, sent, done, limit_ms=200.0)
    assert out["n"] == 4
    assert out["latencies_ms"] == pytest.approx([50.0, 300.0, 250.0])
    assert out["lateness_max_ms"] == pytest.approx(150.0)
    assert out["lateness_p50_ms"] == pytest.approx(75.0)
    # Two decisions past 200 ms, and the missing one, miss the limit.
    assert out["slo_miss_frac"] == pytest.approx(3 / 4)


def test_open_loop_early_send_is_not_negative_lateness():
    out = open_loop_accounting([1.0], [0.999], [1.01], limit_ms=100.0)
    assert out["lateness_max_ms"] == 0.0
    assert out["slo_miss_frac"] == 0.0


def test_relative_bound_on_nonzero_baseline():
    assert check_bound("decision_p50_ms", 100.0, 109.0, "lower", 0.1) is None
    assert "worsens" in check_bound("decision_p50_ms", 100.0, 111.0, "lower", 0.1)
    assert check_bound("throughput_utt_s", 10.0, 9.5, "higher", 0.1) is None
    assert check_bound("throughput_utt_s", 10.0, 8.0, "higher", 0.1) is not None


def test_zero_baseline_is_gated_absolutely():
    # A relative test would divide by zero and wave 0 -> 0.5 through.
    assert check_bound("failed_frac", 0.0, 0.0, "lower", 0.1) is None
    assert "absolute" in check_bound("failed_frac", 0.0, 0.01, "lower", 0.1)
    assert check_bound("slo_miss_frac", 0.0, 0.02, "lower", 0.1) is None
    assert check_bound("slo_miss_frac", 0.0, 0.5, "lower", 0.1) is not None
    # obs.* cost reads zero on clean workloads.
    assert check_bound("obs.audit_records_per_utt", 0.0, 1.0, "lower", None) is not None
    # Listed metrics stay absolute even from a nonzero baseline.
    assert check_bound("slo_miss_frac", 0.01, 0.05, "lower", 0.25) is not None
    # Any other metric with a zero baseline gets a zero absolute bound.
    assert check_bound("streaming.cost_ratio", 0.0, 0.1, "lower", 0.2) is not None


def test_compare_gates_zero_baselines_and_skips_new_metrics():
    from perfbench.compare import regressions

    specs = {
        "decision_p50_ms": ("lower", 0.2),
        "throughput_utt_s": ("higher", 0.2),
        "streaming.cost_ratio": ("lower", None),
        "obs.audit_records_per_utt": ("lower", None),
    }
    base = {
        "metrics": {
            "decision_p50_ms": 100.0,
            "throughput_utt_s": 5.0,
            "failed_frac": 0.0,
            "streaming.cost_ratio": 7.0,
            "obs.audit_records_per_utt": 0.0,
        }
    }
    current = {
        "metrics": {
            "decision_p50_ms": 115.0,
            "throughput_utt_s": 3.0,
            "failed_frac": 0.5,
            "streaming.cost_ratio": 9.0,  # per-layer, no bound: reported, not gated
            "obs.audit_records_per_utt": 2.0,  # zero baseline: gated absolutely
            "new_metric": 1.0,
        }
    }
    found = regressions(base, current, specs)
    assert [line.split(":")[0] for line in found] == [
        "failed_frac",
        "obs.audit_records_per_utt",
        "throughput_utt_s",
    ]
