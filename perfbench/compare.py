"""Compare two benchmark reports metric by metric.

    python3 -m perfbench.compare BASE.json CURRENT.json

Each file is a report written by ``perfbench/run.py --report PATH``.
Directions and relative bounds come from ``BENCHMARK.json`` and, for
the metrics reported outside the result line, from
:data:`perfbench.stats.REPORTED`; metrics whose baseline can be zero
(``failed_frac``, ``slo_miss_frac``, the ``obs.*`` costs on clean
workloads) are gated on the absolute bounds in
:data:`perfbench.stats.ABSOLUTE_BOUNDS`.  Exits 1 if any metric
regressed past its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .stats import ABSOLUTE_BOUNDS, REPORTED, check_bound

ROOT = Path(__file__).resolve().parents[1]


def metric_specs() -> dict:
    """``{name: (better, relative bound or None)}`` for every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    out.update({name: (better, bound) for name, (_, better, bound) in REPORTED.items()})
    return out


def regressions(base: dict, current: dict, specs: dict) -> list[str]:
    found = []
    for name, value in sorted(current["metrics"].items()):
        if name not in base["metrics"]:
            continue
        better, bound = specs.get(name, ("lower", None))
        if bound is None and name not in ABSOLUTE_BOUNDS:
            continue  # per-layer metrics carry no bound
        problem = check_bound(name, base["metrics"][name], value, better, bound)
        if problem:
            found.append(problem)
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, current = (json.loads(Path(p).read_text()) for p in argv)
    found = regressions(base, current, metric_specs())
    for line in found:
        print(f"REGRESSION {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
