"""The workloads: inputs, set-up, timed phases, checks and metrics.

One run of a workload, in order:

1. (traced run only) train the gate from scratch, timing both halves;
2. set the gateway up ``SETUP_REPEATS`` times in fresh processes
   (``setup_s`` is the median); the last one serves the run;
3. warm-up utterances;
4. ``--seconds / ROUND_SECONDS`` rounds, each: an open-loop segment of
   one mix block at the workload's fixed rate; a closed-loop saturation
   segment of one block (traced run: one traced, one not, the reference
   for ``trace.overhead_frac``); then, with the gateway idle, the batch
   view in this process: one ``evaluate_batch`` call over the saturation
   segment's captures and single ``evaluate`` calls over the open-loop
   segment's, which are also the correctness reference for those;
5. with the gateway gone, the float64 ``evaluate`` reference of every
   other streamed event.

Every segment reads whole mix blocks from the base event sequence (see
``inputs.py``), so its work is the same under every seed; the seed
changes order, arrival times and dither.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .calibrate import PROBE_REF_MS, probe_ms, speed
from .gate import load_bank, load_gate, train_gate
from .inputs import MIX_BLOCK, PHASE_SLOT, EventStream, poisson_schedule
from .loadgen import Connection, Utterance, closed_loop, open_loop
from .stats import (
    REPORTED,
    TAIL,
    open_loop_accounting,
    percentile,
    samples_beyond,
    tail_percentile,
)
from .system import SystemProcess
from .tracing import SpanTable, Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    attack_mix: float
    hardened: bool
    chunk: int  # samples per audio op
    obs: bool  # REPRO_OBS=1 with an audit log and the decision monitor
    rate: float  # offered utterances/s in the open-loop segments
    slo_ms: float  # latency limit for slo_miss_frac


# The open-loop rate sits at 30-40 % of the saturation throughput
# measured on the reference machine (2 cores, 6-9 decisions/s as its
# neighbours allow, both workloads), so latency measures service time
# more than backlog, while a run still fits its time budget (~50 s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream-city", attack_mix=0.0, hardened=False, chunk=2048, obs=False,
            rate=2.5, slo_ms=500.0,
        ),
        Workload(
            "attack-audit", attack_mix=0.25, hardened=True, chunk=16384, obs=True,
            rate=2.3, slo_ms=800.0,
        ),
    )
}

SETUP_REPEATS = 3
CONNECTIONS = 2  # one per core of the reference machine (nproc = 2)
WARMUP_UTTERANCES = 4
ROUND_SECONDS = 10.0  # nominal length of one measurement round; --seconds sets the count
SEGMENT_LIMIT_S = 60.0  # a saturation segment stops issuing past this
LAYERS = ("preprocess", "liveness", "features", "orientation")
# First event index of each phase (warm-up starts at 0); segment k of a
# phase starts k blocks later.
SLOT_OPEN, SLOT_SATURATION, SLOT_UNTRACED = (k * PHASE_SLOT for k in range(1, 4))

END_TO_END = {  # name: (unit, better); the metrics of the result line
    "setup_s": ("s", "lower"),
    "throughput_utt_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "batch_decision_p50_ms": ("ms", "lower"),
}

PER_LAYER = {  # name: (unit, better)
    "serving.loop_lag_p95_ms": ("ms", "lower"),
    f"serving.queue_wait_p{TAIL:g}_ms": ("ms", "lower"),
    "serving.busy_frac": ("ratio", "lower"),
    "serving.push_audio_ms_per_utt": ("ms", "lower"),
    "serving.end_wake_ms_p50": ("ms", "lower"),
    "streaming.checks_per_utt": ("count", "lower"),
    "streaming.early_exit_frac": ("ratio", "higher"),
    "streaming.frames_to_reject_p50": ("count", "lower"),
    "streaming.check_yield": ("ratio", "higher"),
    "streaming.push_self_ms_per_utt": ("ms", "lower"),
    "streaming.cost_ratio": ("ratio", "lower"),
    "pipeline.evaluate_ms_p50": ("ms", "lower"),
    "pipeline.evaluate_calls_per_utt": ("count", "lower"),
    **{
        f"{layer}.{metric}": (unit, "lower")
        for layer in LAYERS
        for metric, unit in (
            ("ms_per_call", "ms"),
            ("calls_per_utt", "count"),
            ("early_calls_per_utt", "count"),
        )
    },
    "gcc_accumulator.push_ms_per_utt": ("ms", "lower"),
    "obs.audit_ms_per_utt": ("ms", "lower"),
    "obs.monitor_ms_per_utt": ("ms", "lower"),
    "obs.audit_records_per_utt": ("count", "lower"),
    "runtime.plan_hit_ratio": ("ratio", "higher"),
    "setup.train_orientation_s": ("s", "lower"),
    "setup.train_liveness_s": ("s", "lower"),
    "setup.gateway_start_s": ("s", "lower"),
    f"loadgen.lateness_p{TAIL:g}_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Checks:
    """Failed operations, counted against operations attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


def _median(values) -> float:
    return float(statistics.median(values))


def _json_fingerprint(decision) -> list:
    """A fingerprint as it looks after a JSON round trip over the wire."""
    return json.loads(json.dumps(list(decision.fingerprint())))


def _setup(workload: Workload, gate_path: Path, tmp: Path, trace_path: Path | None):
    """Set the gateway up ``SETUP_REPEATS`` times; the last one stays up.

    Each set-up spawns a fresh process and waits for its ready line:
    interpreter start, imports, loading the gate, binding the listener.
    """
    args = ["--gate", str(gate_path)]
    if workload.hardened:
        args.append("--hardened")
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    env = dict(os.environ, REPRO_OBS="1" if workload.obs else "0")
    if workload.obs:
        env["REPRO_AUDIT_LOG"] = str(tmp / "audit.jsonl")
    root = Path(__file__).resolve().parents[1]
    times, system = [], None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.stop()
        system = SystemProcess(root, args, env, tmp / "system.log")
        times.append(system.setup_s)
    return system, times


def _train_timings(gate_path: Path, checks: Checks) -> dict:
    """Train the gate from scratch and time both halves (traced run)."""
    tracer = Tracer()
    tracer.enabled = True
    started = time.perf_counter()
    _, payload = train_gate(tracer)
    total = time.perf_counter() - started
    orientation = sum(end - start for _, start, end, parent, *_ in tracer.spans if parent < 0)
    checks.attempted += 1
    if payload != gate_path.read_bytes():
        checks.fail("fresh-gate-differs-from-stored")
    return {
        "setup.train_orientation_s": orientation,
        "setup.train_liveness_s": total - orientation,
    }


async def _drive(system: SystemProcess, stream: EventStream, pipeline, workload: Workload,
                 seed: int, rounds: int, trace: bool) -> dict:
    """Warm-up, then ``rounds`` rounds of open loop / saturation / batch.

    Interleaving spreads every metric's samples over the whole run, and
    the calibration probe runs in the gateway process between segments,
    so each segment is scaled by the machine speed around it.  The
    batch segment runs in this process while the gateway is idle.
    """
    conns = [
        await Connection.open("127.0.0.1", system.ready["port"]) for _ in range(CONNECTIONS)
    ]
    phases: dict = {"warmup": [], "open": [], "saturation": [], "untraced": [],
                    "batched": [], "batch_tput": [], "evaluate_ms": [], "probes": [],
                    "ref": {}, "ref_ms": {}}

    def gateway_probe() -> float:
        return system.command(cmd="probe")["probe_ms"]

    try:
        for index in range(WARMUP_UTTERANCES):
            event, record = stream[index], Utterance(index, None)
            await conns[index % CONNECTIONS].utterance(
                record, stream.audio(index), workload.chunk, event.truth, event.slices()
            )
            phases["warmup"].append(record)
        for k in range(rounds):
            first = k * MIX_BLOCK
            before = gateway_probe()
            if trace:
                system.command(cmd="trace", on=True)
            offsets = poisson_schedule(seed, k, workload.rate, MIX_BLOCK)
            opened = await open_loop(conns, stream, SLOT_OPEN + first, offsets, workload.chunk)
            if trace:
                system.command(cmd="trace", on=False)
            middle = gateway_probe()
            if trace:
                system.command(cmd="trace", on=True)
            saturated, elapsed = await closed_loop(
                conns, stream, SLOT_SATURATION + first, MIX_BLOCK, SEGMENT_LIMIT_S,
                workload.chunk,
            )
            if trace:
                system.command(cmd="trace", on=False)
                phases["untraced"].append(
                    await closed_loop(conns, stream, SLOT_UNTRACED + first, MIX_BLOCK,
                                      SEGMENT_LIMIT_S, workload.chunk)
                )
            after = gateway_probe()
            phases["open"].append((opened, speed([before, middle])))
            phases["saturation"].append((saturated, elapsed, speed([middle, after])))
            phases["probes"] += [before, middle, after]
            _batch_segment(pipeline, stream, opened, saturated, phases)
    finally:
        for conn in conns:
            await conn.close()
    return phases


def _batch_segment(pipeline, stream: EventStream, opened, saturated, phases: dict) -> None:
    """The round's batch view, on captures only the gateway has seen.

    One ``evaluate_batch`` call over the saturation segment's captures,
    then ``evaluate`` of the open-loop segment's captures one at a time —
    the float64 reference their streamed fingerprints must equal — each
    between calibration probes.
    """
    captures = [stream.capture(r.index) for r in saturated]
    before = probe_ms()
    started = time.perf_counter()
    evaluation = pipeline.evaluate_batch(captures)
    tput = len(captures) / (time.perf_counter() - started)
    middle = probe_ms()
    phases["batched"] += [
        (r.index, _json_fingerprint(d)) for r, d in zip(saturated, evaluation.decisions)
    ]
    times = []
    for record in opened:
        phases["ref"][record.index], ms = _reference(pipeline, stream, record.index)
        phases["ref_ms"][record.index] = ms
        times.append(ms)
    after = probe_ms()
    phases["batch_tput"].append((tput, speed([before, middle])))
    phases["evaluate_ms"].append((times, speed([middle, after])))
    phases["probes"] += [before, middle, after]


def _reference(pipeline, stream: EventStream, index: int):
    """The float64 batch decision of one event's exact audio, and its ms."""
    capture = stream.capture(index)
    started = time.perf_counter()
    decision = pipeline.evaluate(capture)
    return _json_fingerprint(decision), (time.perf_counter() - started) * 1000.0


def _tallies(stream: EventStream, verdicts) -> list[str]:
    """Per-source accept/reject counts from ``(index, accepted)`` pairs."""
    counts: dict[str, list] = {}
    for index, accepted in verdicts:
        event = stream[index]
        tally = counts.setdefault(event.source, [event.truth, 0, 0])
        tally[1 if accepted else 2] += 1
    return [
        f"  {source:<16} truth={'accept' if truth else 'reject':<6} "
        f"accepted {accepted:>4}  rejected {rejected:>4}"
        for source, (truth, accepted, rejected) in sorted(counts.items())
    ]


def _decided(records) -> int:
    return sum(1 for r in records if r.decision is not None)


def _end_to_end(phases: dict, setup_times: list, peak_rss_mb: float, scaled: bool) -> dict:
    """The end-to-end metrics of one run.

    With ``scaled``, every wall-clock sample is put in quiet-reference
    units by the calibration probes around its segment (calibrate.py);
    without, the values are as measured.
    """

    def f(factor: float) -> float:
        return factor if scaled else 1.0

    open_ms = [
        (r.done - r.due) * 1000.0 * f(s)
        for records, s in phases["open"]
        for r in records
        if r.decision is not None
    ]
    reject_ms = [
        (r.first_reject - r.due) * 1000.0 * f(s)
        for records, s in phases["open"]
        for r in records
        if r.decision is not None and not r.decision["accepted"]
    ]
    return {
        "setup_s": _median(setup_times) * f(speed(phases["probes"])),
        "throughput_utt_s": _median(
            _decided(records) / elapsed / f(s) for records, elapsed, s in phases["saturation"]
        ),
        "decision_p50_ms": percentile(open_ms, 50),
        f"decision_p{TAIL:g}_ms": percentile(open_ms, TAIL),
        "reject_p50_ms": percentile(reject_ms, 50),
        "peak_rss_mb": peak_rss_mb,
        "batch_throughput_utt_s": _median(t / f(s) for t, s in phases["batch_tput"]),
        "batch_decision_p50_ms": percentile(
            [v * f(s) for times, s in phases["evaluate_ms"] for v in times], 50
        ),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 build: dict, tmp: Path):
    """One run; returns ``(result, report lines, every metric)``.

    ``build`` holds :func:`perfbench.gate.ensure_build`'s gate and bank
    paths; ``tmp`` is a scratch directory inside the checkout.
    """
    checks = Checks()
    gate_path = build["gate"]
    layer = _train_timings(gate_path, checks) if trace else {}
    pipeline = load_gate(gate_path, hardened=workload.hardened)
    stream = EventStream(seed, load_bank(build["bank"][workload.attack_mix]), workload.attack_mix)
    rounds = max(1, round(seconds / ROUND_SECONDS))
    trace_path = tmp / "spans.json" if trace else None

    system, setup_times = _setup(workload, gate_path, tmp, trace_path)
    try:
        # The warm-up references also warm this process's pipeline.
        warm = {index: _reference(pipeline, stream, index) for index in range(WARMUP_UTTERANCES)}
        phases = asyncio.run(_drive(system, stream, pipeline, workload, seed, rounds, trace))
        final = system.stop()
    except BaseException:
        system.kill()
        raise

    # Verification: the float64 batch ``evaluate`` of each event's exact
    # audio is the reference every streamed and batched fingerprint must
    # equal.  The open-loop ones were computed in the batch segments;
    # the rest are computed here, with the gateway gone.
    ref, ref_ms = phases["ref"], phases["ref_ms"]
    for index, (fingerprint, ms) in warm.items():
        ref[index], ref_ms[index] = fingerprint, ms
    opened = [r for records, _ in phases["open"] for r in records]
    streamed = list(phases["warmup"]) + opened
    streamed += [r for records, *_ in phases["saturation"] + phases["untraced"] for r in records]
    for record in streamed:
        if record.index not in ref:
            ref[record.index], ref_ms[record.index] = _reference(pipeline, stream, record.index)
    verdicts = []
    for record in streamed:
        checks.attempted += 1
        if record.errors:
            checks.fail("error-event")
        elif record.decision is None:
            checks.fail("missing-decision")
        elif record.decision["fingerprint"] != ref[record.index]:
            checks.fail("fingerprint-mismatch")
        else:
            verdicts.append((record.index, bool(record.decision["accepted"])))
    for index, fingerprint in phases["batched"]:
        checks.attempted += 1
        if fingerprint != ref[index]:
            checks.fail("batch-fingerprint-mismatch")

    acc = open_loop_accounting(
        [r.due for r in opened], [r.sent for r in opened],
        [r.done if r.decision is not None else None for r in opened], workload.slo_ms,
    )
    latencies = acc["latencies_ms"]
    metrics = _end_to_end(phases, setup_times, final["peak_rss_mb"], scaled=True)
    raw = _end_to_end(phases, setup_times, final["peak_rss_mb"], scaled=False)
    rejects = sum(1 for r in opened if r.decision is not None and not r.decision["accepted"])
    n_sat = sum(len(records) for records, *_ in phases["saturation"])
    report = [
        f"perfbench {workload.name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
        f"{rounds} rounds",
        f"  calibration probe: median {_median(phases['probes']):.2f} ms, range "
        f"{min(phases['probes']):.2f}-{max(phases['probes']):.2f} ms over "
        f"{len(phases['probes'])} probes (quiet reference {PROBE_REF_MS:g} ms)",
        "  raw: " + ", ".join(f"{name} {value:.4g}" for name, value in raw.items()),
        f"  set-up x{len(setup_times)}: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
        f"  open loop: {len(opened)} utterances due at {workload.rate:g}/s (Poisson) on "
        f"{CONNECTIONS} connections; decision latency from due time over n={len(latencies)} "
        f"(p{TAIL:g} has {samples_beyond(len(latencies), TAIL)} samples beyond it; highest "
        f"supported p{tail_percentile(len(latencies)) or 0:g}); reject latency n={rejects}",
        f"  generator lateness (send - due): p50 {acc['lateness_p50_ms']:.2f} ms, "
        f"p{TAIL:g} {percentile(acc['lateness_ms'], TAIL):.2f} ms, "
        f"max {acc['lateness_max_ms']:.2f} ms",
        f"  saturation: {n_sat} decisions in {len(phases['saturation'])} segments of "
        f"{MIX_BLOCK}; per segment "
        + ", ".join(f"{_decided(recs) / el:.2f}/s" for recs, el, _ in phases["saturation"]),
        f"  batch: evaluate_batch {len(phases['batched'])} saturation captures, evaluate "
        f"{sum(len(times) for times, _ in phases['evaluate_ms'])} open-loop captures, "
        f"in {rounds} segments",
        f"  failed operations: {checks.failed} of {checks.attempted} "
        f"({dict(checks.failures) or 'none'})",
        "  per-source verdicts (streamed):",
        *_tallies(stream, verdicts),
    ]
    if trace:
        layer.update(_layers(json.loads(trace_path.read_text()), phases, ref_ms, checks, report))
        layer["setup.gateway_start_s"] = _median(setup_times)
        layer[f"loadgen.lateness_p{TAIL:g}_ms"] = percentile(acc["lateness_ms"], TAIL)
        layer["trace.overhead_frac"] = 1.0 - raw["throughput_utt_s"] / _median(
            _decided(records) / elapsed for records, elapsed in phases["untraced"]
        )
        return _result(checks, layer, PER_LAYER, report)
    metrics_all = dict(
        metrics, failed_frac=checks.failed_frac, slo_miss_frac=acc["slo_miss_frac"]
    )
    report.append(f"  (slo_miss_frac limit {workload.slo_ms:g} ms)")
    return _result(checks, metrics_all, {**END_TO_END, **REPORTED}, report)


def _result(checks: Checks, metrics: dict, spec: dict, report: list[str]):
    if set(metrics) != set(spec):
        raise RuntimeError(f"metrics do not match their spec: {set(metrics) ^ set(spec)}")
    report += [f"  {name} = {value:.6g} {spec[name][0]}" for name, value in metrics.items()]
    line = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(value), "unit": spec[name][0]}
            for name, value in metrics.items()
            if name not in REPORTED
        },
    }
    return line, report, metrics


def _layers(data: dict, phases: dict, ref_ms: dict, checks: Checks, report: list[str]) -> dict:
    """Per-layer metrics from the gateway's spans over the traced window."""
    spans = data["spans"]
    table = SpanTable(spans)
    window_ms = 1000.0 * sum(off - on for on, off in data["intervals"])
    opened = [r for records, _ in phases["open"] for r in records]
    traced = [
        r
        for r in opened + [r for records, *_ in phases["saturation"] for r in records]
        if r.decision is not None
    ]
    n = max(table.count("serving.end_wake"), 1)
    busy = table.busy_ms_by_utterance("serving.")
    uid = {r.index: r.decision["utterance_id"] for r in traced}
    waits = [
        (r.done - r.due) * 1000.0 - busy.get(uid[r.index], 0.0)
        for r in opened
        if r.decision is not None
    ]
    checks_made = sum(spans[i][5]["checks"] for i in table.select("streaming.finish"))
    early = sum(1 for r in traced if r.decision["early"])
    written = [i for i in table.select("obs.audit") if spans[i][5]["written"]]
    lookups = data["plan_hits"] + data["plan_misses"]
    out = {
        "serving.loop_lag_p95_ms": percentile(data["loop_lag_ms"], 95),
        f"serving.queue_wait_p{TAIL:g}_ms": percentile(waits, TAIL),
        "serving.busy_frac": sum(busy.values()) / window_ms,
        "serving.push_audio_ms_per_utt": sum(table.durations_ms("serving.push_audio")) / n,
        "serving.end_wake_ms_p50": percentile(table.durations_ms("serving.end_wake"), 50),
        "streaming.checks_per_utt": checks_made / n,
        "streaming.early_exit_frac": early / max(len(traced), 1),
        "streaming.frames_to_reject_p50": percentile(
            [r.decision["frames_to_decision"] for r in traced if not r.decision["accepted"]], 50
        ),
        "streaming.check_yield": early / max(checks_made, 1),
        "streaming.push_self_ms_per_utt": table.self_ms("streaming.push") / n,
        "streaming.cost_ratio": sum(busy.get(uid[r.index], 0.0) for r in traced)
        / sum(ref_ms[r.index] for r in traced),
        "pipeline.evaluate_ms_p50": percentile(table.durations_ms("pipeline.evaluate"), 50),
        "pipeline.evaluate_calls_per_utt": table.count("pipeline.evaluate") / n,
        "gcc_accumulator.push_ms_per_utt": table.self_ms("gcc_accumulator.push") / n,
        "obs.audit_ms_per_utt": 1000.0 * sum(table.self_s[i] for i in written) / n,
        "obs.monitor_ms_per_utt": table.self_ms("obs.monitor") / n,
        "obs.audit_records_per_utt": len(written) / n,
        "runtime.plan_hit_ratio": data["plan_hits"] / lookups if lookups else 0.0,
    }
    for layer in LAYERS:
        calls = table.count(layer)
        out[f"{layer}.ms_per_call"] = table.self_ms(layer) / max(calls, 1)
        out[f"{layer}.calls_per_utt"] = calls / n
        out[f"{layer}.early_calls_per_utt"] = table.count(layer, early=True) / n
    # Self times partition the traced spans, so they can never sum past
    # the wall time of the intervals that recorded them.
    self_ms = table.total_self_ms()
    checks.attempted += 1
    if self_ms > window_ms:
        checks.fail("self-time-exceeds-wall")
    by_layer = Counter()
    for (name, *_), self_s in zip(spans, table.self_s):
        by_layer[re.sub(r"^serving\..*", "serving", name)] += 1000.0 * self_s
    report.append(
        f"  traced intervals {window_ms:.0f} ms over {n} utterances; self ms: "
        + ", ".join(f"{name} {ms:.0f}" for name, ms in by_layer.most_common())
        + f"; sum {self_ms:.0f} ms ({self_ms / window_ms:.1%} of the traced wall time)"
    )
    return out
