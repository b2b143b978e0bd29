"""Machine-readable benchmark reports and the perf-regression gate.

A :class:`BenchReport` serializes one benchmark run to a
schema-versioned JSON document (``BENCH_<name>.json``)::

    {
      "schema": "repro.obs.bench/1",
      "name": "runtime",
      "created": 1754000000.0,
      "env": {"python": "3.12.1", "platform": "...", "cpu_count": 8, ...},
      "metrics": {
        "render.cold_seconds": {"value": 12.1, "kind": "wall_clock",
                                 "unit": "s", "direction": "lower",
                                 "gate": true},
        "render.parallel_equals_serial": {"value": true,
                                           "kind": "equivalence", ...}
      },
      "histograms": {"pipeline.stage_ms{stage=liveness}": {...}}
    }

Metric kinds: ``wall_clock`` / ``count`` / ``ratio`` are numeric and
gated by the relative threshold; ``equivalence`` is compared exactly
(a correctness bit must never drift, whatever the hardware); ``info``
is recorded but never gated.  ``direction`` says which way is better
(``lower`` for latencies, ``higher`` for speedups); ``gate: false``
demotes a metric to informational.

The comparator is the CI gate::

    python -m repro.obs.bench --compare baseline.json current.json \
        --max-regress 25

exits 0 when every gated metric of ``baseline`` is within the threshold
in ``current`` (and every equivalence bit matches), 1 on any regression,
missing metric or schema problem, 2 on usage errors.  ``--validate``
checks a single report against the schema.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field

SCHEMA = "repro.obs.bench/1"

KINDS = ("wall_clock", "count", "ratio", "equivalence", "info")
DIRECTIONS = ("lower", "higher", "none")


def env_fingerprint() -> dict:
    """Where a benchmark ran: interpreter, platform, cores, key libs."""
    fingerprint = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    for package in ("numpy", "scipy"):
        try:
            fingerprint[package] = __import__(package).__version__
        except Exception:
            fingerprint[package] = None
    fingerprint["repro_env"] = {
        key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")
    }
    return fingerprint


class BenchReport:
    """One benchmark run, accumulated metric by metric, then serialized."""

    def __init__(self, name: str, env: dict | None = None, created: float | None = None):
        self.name = name
        self.env = env_fingerprint() if env is None else env
        self.created = time.time() if created is None else created
        self.metrics: dict[str, dict] = {}
        self.histograms: dict[str, dict] = {}
        self.profiles: dict[str, dict] = {}
        self.quality: dict = {}

    def add_metric(
        self,
        name: str,
        value,
        kind: str = "wall_clock",
        unit: str = "",
        direction: str = "lower",
        gate: bool = True,
    ) -> None:
        """Record one named result.

        ``equivalence`` metrics are always gated and direction-free;
        numeric kinds carry ``direction`` and an optional ``gate: false``
        to record without enforcing.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r} (one of {KINDS})")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r} (one of {DIRECTIONS})")
        if kind == "equivalence":
            direction, gate = "none", True
        elif kind == "info":
            gate = False
        else:
            value = float(value)
        self.metrics[name] = {
            "value": value,
            "kind": kind,
            "unit": unit,
            "direction": direction,
            "gate": bool(gate),
        }

    def add_histogram(self, name: str, summary: dict) -> None:
        """Attach a histogram summary (see ``Histogram.summary()``)."""
        self.histograms[name] = dict(summary)

    def add_profiles(self, profiles: dict) -> None:
        """Embed profiling records (see ``repro.obs.profile``), merged by name.

        Profiles are informational — never gated — and the section is
        omitted entirely when empty, so reports from unprofiled runs
        stay byte-identical to pre-profile ones.
        """
        for name, record in profiles.items():
            self.profiles[name] = dict(record)

    def add_quality(self, snapshot: dict) -> None:
        """Embed a decision-quality monitor snapshot (see
        ``repro.obs.monitor``).

        Like profiles, the quality section is informational here (the
        dedicated ``QUALITY_*.json`` gate owns enforcement) and is
        omitted entirely when empty, keeping unmonitored reports
        byte-identical to pre-monitor ones.
        """
        self.quality = dict(snapshot)

    def to_dict(self) -> dict:
        """The schema-versioned JSON document."""
        document = {
            "schema": SCHEMA,
            "name": self.name,
            "created": self.created,
            "env": self.env,
            "metrics": self.metrics,
            "histograms": self.histograms,
        }
        if self.profiles:
            document["profiles"] = self.profiles
        if self.quality:
            document["quality"] = self.quality
        return document

    def write(self, path) -> dict:
        """Validate and write the report; returns the document."""
        document = self.to_dict()
        problems = validate(document)
        if problems:
            raise ValueError("refusing to write invalid report: " + "; ".join(problems))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "BenchReport":
        """Rebuild a report from its JSON document (must validate)."""
        problems = validate(document)
        if problems:
            raise ValueError("invalid report: " + "; ".join(problems))
        report = cls(document["name"], env=dict(document["env"]), created=document["created"])
        report.metrics = {name: dict(metric) for name, metric in document["metrics"].items()}
        report.histograms = {
            name: dict(summary) for name, summary in document.get("histograms", {}).items()
        }
        report.profiles = {
            name: dict(record) for name, record in document.get("profiles", {}).items()
        }
        report.quality = dict(document.get("quality", {}))
        return report


def validate(document) -> list[str]:
    """Problems that make ``document`` not a valid v1 bench report."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("schema") != SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(document.get("name"), str) or not document.get("name"):
        problems.append("name must be a non-empty string")
    if not isinstance(document.get("created"), (int, float)):
        problems.append("created must be an epoch timestamp")
    if not isinstance(document.get("env"), dict):
        problems.append("env must be an object")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics must be a non-empty object")
        metrics = {}
    for name, metric in metrics.items():
        where = f"metrics[{name!r}]"
        if not isinstance(metric, dict):
            problems.append(f"{where} is not an object")
            continue
        if "value" not in metric:
            problems.append(f"{where} has no value")
        kind = metric.get("kind")
        if kind not in KINDS:
            problems.append(f"{where} kind {kind!r} not one of {KINDS}")
        elif kind not in ("equivalence", "info") and not isinstance(
            metric.get("value"), (int, float)
        ):
            problems.append(f"{where} value must be numeric for kind {kind!r}")
        if metric.get("direction") not in DIRECTIONS:
            problems.append(f"{where} direction not one of {DIRECTIONS}")
        if not isinstance(metric.get("gate"), bool):
            problems.append(f"{where} gate must be a boolean")
    histograms = document.get("histograms", {})
    if not isinstance(histograms, dict):
        problems.append("histograms must be an object")
    else:
        for name, summary in histograms.items():
            if not isinstance(summary, dict) or "counts" not in summary:
                problems.append(f"histograms[{name!r}] is not a histogram summary")
    profiles = document.get("profiles", {})
    if not isinstance(profiles, dict):
        problems.append("profiles must be an object")
    else:
        for name, record in profiles.items():
            if not isinstance(record, dict):
                problems.append(f"profiles[{name!r}] is not an object")
    if not isinstance(document.get("quality", {}), dict):
        problems.append("quality must be an object")
    return problems


@dataclass
class Comparison:
    """Outcome of comparing a current report against a baseline."""

    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every gated metric held."""
        return not self.failures


def compare(baseline: dict, current: dict, max_regress_pct: float = 25.0) -> Comparison:
    """Gate ``current`` against ``baseline``.

    Numeric gated metrics may regress by at most ``max_regress_pct``
    percent in their worse direction — so a lower-is-better metric with
    a zero baseline fails on any positive value; equivalence metrics
    must match exactly; metrics present in the baseline must still
    exist.
    """
    if max_regress_pct < 0:
        raise ValueError("max_regress_pct must be >= 0")
    outcome = Comparison()
    allowance = 1.0 + max_regress_pct / 100.0
    for name, base in baseline.get("metrics", {}).items():
        row = {"metric": name, "kind": base.get("kind"), "baseline": base.get("value")}
        cur = current.get("metrics", {}).get(name)
        if cur is None:
            row.update(current=None, status="missing")
            outcome.failures.append(f"{name}: present in baseline, missing from current")
            outcome.rows.append(row)
            continue
        value = cur.get("value")
        row["current"] = value
        base_value = base.get("value")
        if base.get("kind") == "equivalence":
            if value == base_value:
                row["status"] = "ok"
            else:
                row["status"] = "FAIL"
                outcome.failures.append(
                    f"{name}: equivalence changed ({base_value!r} -> {value!r})"
                )
        elif not base.get("gate", True) or base.get("kind") == "info":
            row["status"] = "info"
        else:
            try:
                base_number, number = float(base_value), float(value)
            except (TypeError, ValueError):
                row["status"] = "FAIL"
                outcome.failures.append(f"{name}: non-numeric value in a gated metric")
                outcome.rows.append(row)
                continue
            row["ratio"] = number / base_number if base_number else None
            direction = base.get("direction", "lower")
            if direction == "none":
                row["status"] = "info"
            elif direction == "lower" and number > base_number * allowance:
                row["status"] = "FAIL"
                outcome.failures.append(
                    f"{name}: {number:.6g} exceeds baseline {base_number:.6g} "
                    f"by more than {max_regress_pct:g}%"
                )
            elif direction == "higher" and number < base_number / allowance:
                row["status"] = "FAIL"
                outcome.failures.append(
                    f"{name}: {number:.6g} fell below baseline {base_number:.6g} "
                    f"by more than {max_regress_pct:g}%"
                )
            else:
                row["status"] = "ok"
        outcome.rows.append(row)
    for name in current.get("metrics", {}):
        if name not in baseline.get("metrics", {}):
            outcome.rows.append(
                {
                    "metric": name,
                    "kind": current["metrics"][name].get("kind"),
                    "baseline": None,
                    "current": current["metrics"][name].get("value"),
                    "status": "new",
                }
            )
    return outcome


def format_comparison(outcome: Comparison, max_regress_pct: float) -> str:
    """Human-readable comparison table plus verdict line."""
    headers = ("metric", "baseline", "current", "ratio", "status")
    lines = ["%-44s %12s %12s %8s  %s" % headers]

    def cell(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.4g}"
        return "-" if value is None else str(value)

    for row in outcome.rows:
        lines.append(
            "%-44s %12s %12s %8s  %s"
            % (
                row["metric"],
                cell(row.get("baseline")),
                cell(row.get("current")),
                cell(row.get("ratio")),
                row["status"],
            )
        )
    if outcome.passed:
        lines.append(f"PASS: all gated metrics within {max_regress_pct:g}% of baseline")
    else:
        lines.append(f"FAIL: {len(outcome.failures)} gated metric(s) regressed")
        for failure in outcome.failures:
            lines.append(f"  - {failure}")
    return "\n".join(lines)


def _load(path) -> tuple[dict | None, list[str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return None, [f"{path}: {error}"]
    problems = validate(document)
    return document, [f"{path}: {problem}" for problem in problems]


def main(argv=None) -> int:
    """CLI entry point (see module docstring); returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Validate and compare schema-versioned benchmark reports.",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        help="gate CURRENT against BASELINE",
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=25.0,
        metavar="PCT",
        help="allowed regression on gated numeric metrics, percent (default 25)",
    )
    parser.add_argument("--validate", metavar="REPORT", help="schema-check one report")
    args = parser.parse_args(argv)
    if args.validate:
        document, problems = _load(args.validate)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print(f"{args.validate}: valid {SCHEMA} report ({len(document['metrics'])} metrics)")
        return 0
    if args.compare:
        baseline_path, current_path = args.compare
        baseline, problems = _load(baseline_path)
        current, more = _load(current_path)
        problems += more
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        outcome = compare(baseline, current, args.max_regress)
        print(format_comparison(outcome, args.max_regress))
        return 0 if outcome.passed else 1
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
