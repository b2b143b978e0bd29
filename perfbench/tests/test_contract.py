"""BENCHMARK.json names exactly what the benchmark reports.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
from pathlib import Path

from perfbench.stats import REPORTED
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_and_exclude_reported_ones():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert not set(REPORTED) & set(END_TO_END)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
