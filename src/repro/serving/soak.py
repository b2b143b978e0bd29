"""Gateway load driver: one client loop, shared by the soak and the city drive.

:func:`run_streams` is the repo's one way to put load on a live
:class:`~repro.serving.gateway.ServingGateway`.  It decides every
capture in batch first, starts a gateway on a :class:`StepClock`, then
gives each event stream its own client task that sends its utterances
strictly in order — over per-device connections kept in a bounded LRU —
until the stream ends or an optional deadline passes.  Every decision
that comes back over the wire is checked against its precomputed batch
fingerprint and tallied per source; :func:`stream_problems` is the
shared failure gate.  Two callers drive it:

- this module's CLI, the **soak**: ``python -m repro.serving.soak
  --sessions 200 --seconds 60 --out BENCH_serving.json`` trains the
  TINY-scale gate, renders a bank of captures across facing/side/back
  poses, and passes ``--sessions`` endless round-robin streams over
  them until the deadline;
- :mod:`repro.traffic.drive`, which passes a simulated city's one
  time-ordered event stream (with ground truth and slice labels).

The soak's report (schema ``repro.obs.bench/1``) carries:

- ``serving.p95_decision_ms`` (gated, lower-is-better) plus p50/p99;
- ``serving.median_frames_to_rejection`` (gated: early exit must keep
  shortening streams);
- equivalence bits ``serving.streaming_equals_batch``,
  ``serving.early_never_flips`` and ``serving.early_exit_shortens``
  (strict at any ``--max-regress`` threshold);
- ungated throughput context (utterances, utterances/sec).

The CLI exits nonzero on any correctness failure — a fingerprint
mismatch, nothing verified, a transport error, an early verdict flip,
or ring overflow (tail-dropped samples) — and ``--json PATH`` writes
the printed summary plus the failure list as machine-readable JSON for
CI.

CI runs this with ``REPRO_OBS=1`` and an audit log configured, then
gates the report against ``benchmarks/baselines/BENCH_serving.json``
via ``python -m repro.obs.bench --compare``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import itertools
import json
import sys
import time
from collections import OrderedDict
from collections.abc import Hashable
from typing import NamedTuple

import numpy as np

from ..arrays.devices import default_channel_subset, get_device
from ..core.config import DEFAULT_DEFINITION
from ..core.liveness import LIVE_HUMAN, MECHANICAL, LivenessDetector
from ..core.pipeline import HeadTalkPipeline
from ..core.preprocessing import preprocess
from ..datasets import TINY
from ..datasets.collection import CollectionSpec, collect
from ..experiments.common import default_dataset, fit_detector
from ..obs.bench import BenchReport
from ..obs.monitor import reset_monitor
from .config import ServingConfig
from .gateway import ServingGateway
from .replay import close_session, open_session, stream_utterance


def build_pipeline(seed: int = 0) -> HeadTalkPipeline:
    """TINY-scale trained gate (the benchmark suite's setup recipe)."""
    detector = fit_detector(default_dataset(TINY, seed), DEFAULT_DEFINITION)
    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    liveness = LivenessDetector(epochs=1, random_state=seed)
    captures = build_captures(seed + 1)
    waveforms = [preprocess(c).reference for c in captures[:4]]
    labels = np.asarray([LIVE_HUMAN, MECHANICAL, LIVE_HUMAN, MECHANICAL])
    liveness.fit(waveforms, labels, array.sample_rate)
    return HeadTalkPipeline(array=array, liveness=liveness, orientation=detector)


def build_captures(seed: int = 1) -> list:
    """Facing/side/back captures at two positions (the soak's traffic)."""
    spec = CollectionSpec(
        room="lab",
        device="D2",
        wake_word="computer",
        locations=((1.0, 0.0), (2.0, 45.0)),
        angles=(0.0, 90.0, 180.0),
        repetitions=1,
    )
    return [capture for _, capture in collect(spec, seed)]


def _json_fingerprint(decision) -> list:
    """A fingerprint as it looks after a JSON round trip over the wire."""
    return json.loads(json.dumps(list(decision.fingerprint())))


class StepClock:
    """Simulated session time: each event lands past the session window.

    Advancing more than ``session_seconds`` per tick means an accepted
    wake's facing-verified session has always expired by the next wake,
    so *every* streamed utterance exercises the gate — the drivers
    measure decisions, not session reuse (tests cover that).
    """

    def __init__(self, step: float):
        self.step = float(step)
        self.t = 0.0

    def __call__(self) -> float:
        self.t += self.step
        return self.t


MAX_OPEN_CONNECTIONS = 128
"""Device connections a client keeps open at once (LRU beyond this, bounding fds)."""


class Utterance(NamedTuple):
    """One utterance a client sends: which device speaks which capture."""

    device: Hashable
    key: Hashable
    source: str
    truth: bool | None = None
    slices: dict | None = None


def _round_robin(start: int, n_captures: int):
    for index in itertools.count(start):
        which = index % n_captures
        yield Utterance(start, which, f"capture-{which}")


def soak_streams(n_captures: int, sessions: int) -> list:
    """``sessions`` endless round-robin streams over the soak's captures.

    Client ``k`` is one device starting at capture ``k``, so concurrent
    clients spread over the whole mix.  The utterances carry no truth
    and no slices: the soak sends wake/audio/end and nothing else.
    """
    return [_round_robin(k, n_captures) for k in range(sessions)]


def latency_percentiles(values) -> dict:
    """p50/p95/p99 of ``values`` in ms (all zero when empty)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    return {f"p{q}_ms": float(np.percentile(arr, q)) for q in (50, 95, 99)}


def _tally() -> dict:
    return {"n": 0, "tp": 0, "fp": 0, "tn": 0, "fn": 0, "latencies_ms": []}


async def run_streams(
    pipeline: HeadTalkPipeline,
    captures: dict,
    streams: list,
    *,
    config: ServingConfig | None = None,
    chunk_samples: int = 2048,
    seconds: float | None = None,
    sources: tuple = (),
) -> dict:
    """Send each of ``streams`` through a live gateway; returns raw stats.

    ``captures`` maps capture keys to captures; each stream yields
    :class:`Utterance` tuples naming those keys.  Every stream gets
    its own client task, which sends in stream order until the stream
    ends or ``seconds`` have passed.  Per-source tallies start with
    ``sources`` (so absent labels still report) and count confusion
    only for utterances that carry truth.
    """
    config = config or ServingConfig()
    expected = {
        key: _json_fingerprint(pipeline.evaluate(capture, config.check_liveness))
        for key, capture in sorted(captures.items())
    }
    # Those verdict pre-evaluations fed the global monitor's score
    # streams (unlabelled); reset so the measured state — including the
    # drift reference window — comes from the streamed traffic alone.
    reset_monitor()
    clock = StepClock(pipeline.config.session_seconds + 1.0)
    gateway = ServingGateway(pipeline, config, clock=clock)
    await gateway.start()
    host, port = gateway.address

    per_source = {source: _tally() for source in sources}
    stats = {
        "clients": len(streams),
        "events": 0,
        "decisions": 0,
        "errors": 0,
        "connections": 0,
        "fingerprint_matches": 0,
        "fingerprint_mismatches": 0,
        "early_exits": 0,
        "early_flips": 0,
        "dropped_samples": 0,
        "latencies_ms": [],
        "frames_to_decision": [],
        "frames_to_decision_rejected": [],
        "frames_seen": [],
        "per_source": per_source,
    }
    deadline = None if seconds is None else time.monotonic() + seconds

    def record(utterance: Utterance, decision: dict) -> None:
        stats["decisions"] += 1
        stats["latencies_ms"].append(decision["wall_ms"])
        if decision["frames_to_decision"] is not None:
            stats["frames_to_decision"].append(decision["frames_to_decision"])
            stats["frames_seen"].append(decision["frames_seen"])
            if not decision["accepted"]:
                stats["frames_to_decision_rejected"].append(decision["frames_to_decision"])
        if decision["early"]:
            stats["early_exits"] += 1
            if decision["accepted"]:
                stats["early_flips"] += 1
        # Per-utterance tail-drop count (the ring resets it at each
        # wake), so summing gives the run-wide total.
        stats["dropped_samples"] += int(decision.get("dropped_samples") or 0)
        if decision["fingerprint"] == expected[utterance.key]:
            stats["fingerprint_matches"] += 1
        else:
            stats["fingerprint_mismatches"] += 1
        tally = per_source.setdefault(utterance.source, _tally())
        tally["n"] += 1
        tally["latencies_ms"].append(decision["wall_ms"])
        if utterance.truth is not None:
            accepted = bool(decision["accepted"])
            if utterance.truth:
                tally["tp" if accepted else "fn"] += 1
            else:
                tally["fp" if accepted else "tn"] += 1

    async def client(stream) -> None:
        connections: OrderedDict = OrderedDict()

        async def connection(device):
            if device in connections:
                connections.move_to_end(device)
                return connections[device]
            if len(connections) >= MAX_OPEN_CONNECTIONS:
                _, (_, old_writer) = connections.popitem(last=False)
                await close_session(old_writer)
            stats["connections"] += 1
            reader, writer, hello = await open_session(host, port)
            if "error" in hello:
                writer.close()
                raise ConnectionError(f"gateway refused connection: {hello}")
            connections[device] = (reader, writer)
            return connections[device]

        try:
            for utterance in stream:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                stats["events"] += 1
                try:
                    reader, writer = await connection(utterance.device)
                    out = await stream_utterance(
                        reader,
                        writer,
                        captures[utterance.key],
                        chunk_samples=chunk_samples,
                        truth=utterance.truth,
                        slices=utterance.slices,
                    )
                except (ConnectionError, OSError):
                    stats["errors"] += 1
                    connections.pop(utterance.device, None)
                    continue
                if out["decision"] is None:
                    stats["errors"] += 1
                    continue
                record(utterance, out["decision"])
        finally:
            for _, writer in connections.values():
                await close_session(writer)

    started = time.perf_counter()
    try:
        await asyncio.gather(*(client(stream) for stream in streams))
    finally:
        stats["elapsed_s"] = time.perf_counter() - started
        await gateway.stop()
    return stats


def report_from_stats(stats: dict) -> BenchReport:
    """Fold raw soak stats into the gateable benchmark report."""
    report = BenchReport("serving")
    ftd = np.asarray(stats["frames_to_decision"], dtype=float)
    rejected = np.asarray(stats["frames_to_decision_rejected"], dtype=float)
    seen = np.asarray(stats["frames_seen"], dtype=float)
    if not stats["latencies_ms"]:
        raise RuntimeError("soak produced no decisions; nothing to report")
    latency = latency_percentiles(stats["latencies_ms"])

    report.add_metric("serving.sessions", int(stats["clients"]), kind="info")
    report.add_metric(
        "serving.utterances",
        int(stats["decisions"]),
        kind="count",
        direction="higher",
        gate=False,
    )
    report.add_metric(
        "serving.utterances_per_sec",
        stats["decisions"] / max(stats["elapsed_s"], 1e-9),
        kind="ratio",
        direction="higher",
        gate=False,
    )
    report.add_metric("serving.p50_decision_ms", latency["p50_ms"], unit="ms", gate=False)
    report.add_metric("serving.p95_decision_ms", latency["p95_ms"], unit="ms")
    report.add_metric("serving.p99_decision_ms", latency["p99_ms"], unit="ms", gate=False)
    report.add_metric(
        "serving.median_frames_to_decision",
        float(np.median(ftd)) if ftd.size else 0.0,
        kind="count",
        direction="lower",
        gate=False,
    )
    # Accepted utterances cannot early-exit (reject-only early verdicts),
    # so the gated shortening metric is over rejections — the traffic
    # early exit exists for.
    report.add_metric(
        "serving.median_frames_to_rejection",
        float(np.median(rejected)) if rejected.size else 0.0,
        kind="count",
        direction="lower",
    )
    report.add_metric(
        "serving.early_exit_fraction",
        stats["early_exits"] / max(stats["decisions"], 1),
        kind="ratio",
        direction="higher",
        gate=False,
    )
    report.add_metric(
        "serving.streaming_equals_batch",
        stats["fingerprint_mismatches"] == 0 and stats["fingerprint_matches"] > 0,
        kind="equivalence",
    )
    report.add_metric("serving.early_never_flips", stats["early_flips"] == 0, kind="equivalence")
    report.add_metric(
        "serving.early_exit_shortens",
        bool(rejected.size) and float(np.median(rejected)) < float(np.median(seen)),
        kind="equivalence",
    )
    report.add_metric(
        "serving.dropped_samples",
        int(stats["dropped_samples"]),
        kind="count",
        direction="lower",
        gate=False,
    )
    report.add_metric(
        "serving.errors", int(stats["errors"]), kind="count", direction="lower", gate=False
    )
    return report


def stream_problems(stats: dict) -> list[str]:
    """Hard-failure conditions any :func:`run_streams` run must exit nonzero on.

    Equivalence breaks (fingerprint mismatch, an early verdict flipping),
    a run that verified nothing, transport errors, and ring overflow (any
    sample tail-dropped means a decision was made on truncated audio) are
    correctness failures, not regressions — no tolerance applies.
    """
    problems = []
    if stats["fingerprint_mismatches"]:
        problems.append(f"{stats['fingerprint_mismatches']} fingerprint mismatch(es)")
    if not stats["fingerprint_matches"]:
        problems.append("no fingerprint matches (nothing verified)")
    if stats["errors"]:
        problems.append(f"{stats['errors']} transport error(s)")
    if stats["early_flips"]:
        problems.append(f"{stats['early_flips']} early verdict flip(s)")
    if stats["dropped_samples"]:
        problems.append(f"{stats['dropped_samples']} tail-dropped sample(s) (ring overflow)")
    return problems


def finish_cli(summary: dict, problems: list[str], json_out: str | None, label: str) -> int:
    """A driver CLI's exit: print the summary, write ``--json``, name each failure."""
    summary["problems"] = problems
    summary["ok"] = not problems
    print(json.dumps(summary, indent=2, sort_keys=True))
    if json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for problem in problems:
        print(f"{label} FAILURE: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--chunk", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serving.json")
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the printed summary (plus problems/ok) as JSON for CI",
    )
    parser.add_argument(
        "--check-liveness",
        action="store_true",
        help="run the liveness stage too (off by default: the soak's "
        "1-epoch TINY liveness model is a smoke model, not a gate)",
    )
    args = parser.parse_args(argv)

    pipeline = build_pipeline(args.seed)
    captures = dict(enumerate(build_captures(args.seed + 1)))
    config = dataclasses.replace(
        ServingConfig.from_env(),
        check_liveness=args.check_liveness,
        max_sessions=max(args.sessions, ServingConfig().max_sessions),
    )
    stats = asyncio.run(
        run_streams(
            pipeline,
            captures,
            soak_streams(len(captures), args.sessions),
            config=config,
            chunk_samples=args.chunk,
            seconds=args.seconds,
        )
    )
    report = report_from_stats(stats)
    report.write(args.out)
    summary = {
        name: report.metrics[name]["value"]
        for name in (
            "serving.utterances",
            "serving.utterances_per_sec",
            "serving.p50_decision_ms",
            "serving.p95_decision_ms",
            "serving.p99_decision_ms",
            "serving.median_frames_to_decision",
            "serving.median_frames_to_rejection",
            "serving.early_exit_fraction",
            "serving.dropped_samples",
            "serving.streaming_equals_batch",
            "serving.early_never_flips",
        )
    }
    return finish_cli(summary, stream_problems(stats), args.json_out, "SOAK")


if __name__ == "__main__":
    sys.exit(main())
