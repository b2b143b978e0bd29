"""Serving gateway under load: latency, frames-to-decision, equivalence.

A small-scale version of the CI soak (``python -m repro.serving.soak``)
runs here: a handful of concurrent simulated devices stream the
facing/side/back capture mix through a live ``ServingGateway`` over TCP
for a few seconds.  The report asserts and records:

- **streaming equals batch** — every streamed verdict's fingerprint is
  byte-identical to ``pipeline.evaluate`` on the same capture;
- **early never flips** — early exits only ever shorten latency;
- **early exit shortens** — rejected utterances decide in fewer frames
  than the stream carries;
- decision latency percentiles and frames-to-rejection, the numbers the
  CI job gates against ``benchmarks/baselines/BENCH_serving.json``.

The report accumulates across this module's tests in definition order —
run the whole file.
"""

import asyncio
import json
import pathlib

import numpy as np

from repro.obs import bench as obs_bench
from repro.reporting import ExperimentResult
from repro.serving import ServingConfig
from repro.serving.soak import (
    build_captures,
    build_pipeline,
    report_from_stats,
    run_streams,
    soak_streams,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_serving.json"

_SESSIONS = 8
_SECONDS = 6.0

_STATE: dict = {}


def _soak():
    """One gateway soak, run once and shared across this module's tests."""
    if _STATE:
        return _STATE["stats"], _STATE["report"]
    pipeline = build_pipeline(seed=0)
    captures = dict(enumerate(build_captures(seed=1)))
    config = ServingConfig(check_liveness=False, max_sessions=_SESSIONS + 4)
    stats = asyncio.run(
        run_streams(
            pipeline,
            captures,
            soak_streams(len(captures), _SESSIONS),
            seconds=_SECONDS,
            config=config,
        )
    )
    report = report_from_stats(stats)
    _STATE["stats"] = stats
    _STATE["report"] = report
    return stats, report


def test_bench_serving_soak(benchmark, record_result):
    stats, report = benchmark.pedantic(_soak, rounds=1, iterations=1)

    # The contract the whole streaming path exists to uphold.
    assert stats["errors"] == 0
    assert stats["fingerprint_mismatches"] == 0
    assert stats["early_flips"] == 0
    assert report.metrics["serving.streaming_equals_batch"]["value"] is True
    assert report.metrics["serving.early_never_flips"]["value"] is True
    assert report.metrics["serving.early_exit_shortens"]["value"] is True

    # Early exits must actually save frames on the rejecting mix.
    to_reject = report.metrics["serving.median_frames_to_rejection"]["value"]
    seen = float(np.median(np.asarray(stats["frames_seen"], dtype=float)))
    assert to_reject < seen

    record_result(
        ExperimentResult(
            experiment_id="R04",
            title="Serving gateway soak: streaming decisions vs batch evaluation",
            headers=["metric", "value"],
            rows=[
                {
                    "metric": "utterances",
                    "value": int(report.metrics["serving.utterances"]["value"]),
                },
                {
                    "metric": "p95_decision_ms",
                    "value": round(report.metrics["serving.p95_decision_ms"]["value"], 1),
                },
                {
                    "metric": "median_frames_to_rejection",
                    "value": to_reject,
                },
                {
                    "metric": "early_exit_fraction",
                    "value": round(
                        report.metrics["serving.early_exit_fraction"]["value"], 3
                    ),
                },
            ],
            paper="(infrastructure benchmark; no paper counterpart)",
            summary={
                "sessions": _SESSIONS,
                "seconds": _SECONDS,
                "utterances": int(report.metrics["serving.utterances"]["value"]),
                "streaming_equals_batch": True,
                "early_never_flips": True,
                "median_frames_to_rejection": to_reject,
                "median_frames_seen": seen,
            },
        )
    )


def test_bench_serving_report_written(tmp_path):
    """Serialize the soak report and prove the gate bites."""
    assert _STATE, "run the whole file in order"
    report = _STATE["report"]
    assert "serving.p95_decision_ms" in report.metrics

    RESULTS_DIR.mkdir(exist_ok=True)
    current_path = RESULTS_DIR / "BENCH_serving.json"
    report.write(current_path)
    assert obs_bench.validate(json.loads(current_path.read_text())) == []

    # A report is always within tolerance of itself.
    assert obs_bench.main(["--compare", str(current_path), str(current_path)]) == 0

    # Synthetic latency regression: 10x p95 must fail even at the CI
    # job's generous threshold.
    regressed = json.loads(current_path.read_text())
    regressed["metrics"]["serving.p95_decision_ms"]["value"] *= 10.0
    regressed_path = tmp_path / "regressed.json"
    regressed_path.write_text(json.dumps(regressed))
    assert (
        obs_bench.main(
            ["--compare", str(current_path), str(regressed_path), "--max-regress", "400"]
        )
        == 1
    )

    # Equivalence bits are strict at any threshold.
    flipped = json.loads(current_path.read_text())
    flipped["metrics"]["serving.streaming_equals_batch"]["value"] = False
    flipped_path = tmp_path / "flipped.json"
    flipped_path.write_text(json.dumps(flipped))
    assert (
        obs_bench.main(
            ["--compare", str(current_path), str(flipped_path), "--max-regress", "10000"]
        )
        == 1
    )

    if BASELINE_PATH.exists():
        assert (
            obs_bench.main(
                ["--compare", str(BASELINE_PATH), str(current_path), "--max-regress", "400"]
            )
            == 0
        )
