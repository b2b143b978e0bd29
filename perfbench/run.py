"""HeadTalk gate benchmark: one command per workload, one JSON line out.

    python3 perfbench/run.py --workload stream-city --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program under test is that
checkout's ``src/repro``.  The first run in a checkout trains the gate
and renders the capture banks into ``.bench_build/`` (see
``perfbench/gate.py``).

Workloads (``perfbench/README.md`` records why each exists and which
numbers each layer change should move):

- ``stream-city`` — clean city mix, plain-liveness gate, streamed over
  the wire in 2048-sample chunks to a gateway in its own process,
  observability off;
- ``attack-audit`` — 25 % attack mix, hardened fused detector, 16384-
  sample chunks, ``REPRO_OBS=1`` with an audit log and the decision
  monitor.

Each run also measures the same traffic in-process, through
``evaluate_batch`` and the float64 ``evaluate`` that serves as the
correctness reference: the batch view that streaming and gateway
changes should leave alone.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a separate traced run.  A
readable report (per-source tallies, sample counts, generator lateness,
the zero-baseline metrics ``failed_frac`` and ``slo_miss_frac``) goes
to stderr.  Any failed operation — transport error, error event,
missing decision, or a streamed fingerprint differing from the float64
batch ``evaluate`` of that event's exact audio — makes the run
incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _prepare_process() -> None:
    """Pin the environment the program sees: no inherited REPRO_* knobs,
    single-threaded BLAS (two processes share two cores), this
    checkout's source first on the path."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("attack-audit", "stream-city"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write every metric as JSON, for python3 -m perfbench.compare",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    _prepare_process()
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(
            f"perfbench: imported repro from {repro.__file__}, not this checkout", file=sys.stderr
        )
        return 2

    from perfbench.gate import build_dir, ensure_build
    from perfbench.workloads import WORKLOADS, run_workload

    build = ensure_build(ROOT)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=build_dir(ROOT)))
    try:
        result, report, full = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), build, tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in report:
        print(line, file=sys.stderr)
    if args.report:
        Path(args.report).write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "correct": result["correct"], "metrics": full},
                indent=1,
            )
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
