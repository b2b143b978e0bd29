"""Traffic drive: stream a simulated city's day through the gateway.

``python -m repro.traffic.drive --households 200 --rate 12`` builds a
trained gate (TINY-scale orientation + a properly trained liveness
model, so mechanical sources actually reject), renders the capture
bank, generates the seeded Poisson event stream and replays it through
a live :class:`~repro.serving.gateway.ServingGateway` over the
JSON-lines TCP protocol — one client connection per (household,
device), events dispatched strictly in event-time order.  The client
loop is the soak's (:func:`repro.serving.soak.run_streams`), fed the
city as its one stream.

Every ``end`` op carries the event's scenario ground truth and slice
labels (``source=...``, ``room=...``), so the process-global
:class:`~repro.obs.monitor.DecisionMonitor` accumulates per-source
sliced FAR/FRR live while the city runs; with ``REPRO_LIVE=1`` the
``/quality`` endpoint serves the same numbers mid-run.  Events are
dispatched serially (decisions are CPU-bound on the gateway's loop
thread, so concurrency buys no throughput) which keeps the monitor's
observation order — and therefore its drift alarms — deterministic.

On completion the CLI writes ``QUALITY_<name>.json`` (the monitor
snapshot, schema ``repro.obs.monitor/1``) plus a machine-readable
summary, and exits nonzero on any correctness failure:

- everything the soak fails on
  (:func:`~repro.serving.soak.stream_problems`): a streamed
  fingerprint differing from its precomputed batch verdict, nothing
  verified, transport errors, an early verdict flip, or tail-dropped
  samples;
- fewer than ``--min-events`` decisions;
- the server's per-source confusion disagreeing with the client's
  (counted independently from the wire replies);
- ``--expect-quiet``: any drift alarm on stationary traffic;
- ``--expect-alarms``: PSI, KS and Page–Hinkley *not all* firing on a
  ``--shift`` run (the seeded mid-day mix shift).

The CLI flags are the drive's only input: a flag left out keeps the
:class:`~repro.traffic.config.TrafficConfig` default, and an invalid
value exits 2 with the config's message before anything is built.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import sys

import numpy as np

from ..arrays.devices import default_channel_subset, get_device
from ..core.config import DEFAULT_DEFINITION
from ..core.liveness import (
    LIVE_HUMAN,
    MECHANICAL,
    FusedLivenessDetector,
    LivenessDetector,
)
from ..core.pipeline import HeadTalkPipeline
from ..core.preprocessing import preprocess
from ..datasets.catalog import Scale
from ..datasets.collection import CollectionSpec, collect
from ..datasets.catalog import dataset1
from ..experiments.common import fit_detector
from ..obs.control import set_obs_enabled
from ..obs.monitor import MonitorConfig, monitor_snapshot, reset_monitor, write_quality_report
from ..serving.config import ServingConfig
from ..serving.soak import (
    MAX_OPEN_CONNECTIONS,
    Utterance,
    finish_cli,
    latency_percentiles,
    run_streams,
    stream_problems,
)
from .city import TrafficEvent, generate_city
from .config import SOURCES, TrafficConfig
from .sources import CaptureBank

DRIFT_DETECTORS = frozenset({"psi", "ks", "page-hinkley"})

# City traffic is a six-mode score mixture, so every drift window's
# source composition is itself multinomial-random: on perfectly
# stationary 200-household days the liveness-stream PSI brushes the
# single-stream 0.25 alert level (observed max ~ 0.251) from window
# composition alone.  The drive alerts at 0.40 — far above composition
# noise, far below the mix-shift signal.
TRAFFIC_PSI_THRESHOLD = 0.40


def _traffic_monitor_config() -> MonitorConfig:
    return MonitorConfig(psi_threshold=TRAFFIC_PSI_THRESHOLD)


# The orientation training slice spans the distances city traffic
# actually plays at (the bank's live sources stand 1-4 m out); TINY's
# single 1 m location generalizes poorly beyond arm's reach.
TRAFFIC_SCALE = Scale(
    name="traffic",
    locations=((1.0, 0.0), (2.0, 15.0), (3.0, -15.0)),
    repetitions=1,
    sessions=2,
)


def build_pipeline(seed: int = 0, hardened: bool = False) -> HeadTalkPipeline:
    """A traffic-scale orientation gate plus a *trained* liveness gate.

    The soak's 1-epoch liveness is a smoke model; city traffic needs the
    mechanical/live distinction to be real, so this trains the fixture
    recipe at city coverage — 72 captures (half live, half loudspeaker)
    across facing, side and back poses in *both* rooms, 300 epochs —
    which separates loudspeaker and replay events from live speech in
    the home room too.

    With ``hardened`` the trained network is wrapped in
    :class:`~repro.core.liveness.FusedLivenessDetector`, so the gate
    runs E30's four-cue fused decision instead of the bare posterior —
    the configuration attack-mix drives measure.  The default stays
    un-hardened so clean-city quality baselines keep their bytes.
    """
    # Both rooms: city households live in the home room too, and a
    # lab-only detector mislabels a third of home-room captures.
    train = dataset1(
        scale=TRAFFIC_SCALE,
        rooms=("lab", "home"),
        devices=("D2",),
        wake_words=("computer",),
        seed=seed,
    )
    detector = fit_detector(train, DEFAULT_DEFINITION)
    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    # Lab-only, one speaker, two repetitions: measured against the full
    # two-room bank this recipe separates best — wider training mixes
    # (both rooms, more speakers) blur the live/mechanical margin at
    # this model size instead of tightening it.
    waveforms, labels = [], []
    for source, label in (("human", LIVE_HUMAN), ("replay", MECHANICAL)):
        spec = CollectionSpec(
            room="lab",
            locations=((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),
            angles=(0.0, 90.0, 180.0),
            repetitions=2,
            source=source,
            speaker_seed=seed,
        )
        for _, capture in collect(spec, seed + 17):
            waveforms.append(preprocess(capture).reference)
            labels.append(label)
    liveness = LivenessDetector(epochs=300, random_state=seed)
    liveness.network.batch_size = 8
    liveness.fit(waveforms, np.asarray(labels), array.sample_rate)
    gate = FusedLivenessDetector(base=liveness) if hardened else liveness
    return HeadTalkPipeline(array=array, liveness=gate, orientation=detector)


async def run_city(
    pipeline: HeadTalkPipeline,
    bank: CaptureBank,
    events: list[TrafficEvent],
    *,
    config: ServingConfig | None = None,
    chunk_samples: int = 16384,
) -> dict:
    """Replay ``events`` through a live gateway; returns raw drive stats.

    The city is one stream for :func:`~repro.serving.soak.run_streams`:
    dispatch is strictly serial in event-time order over per-device
    connections (kept in a bounded LRU).  Serial order makes the
    monitor's score streams — and so the drift detectors — functions of
    the seed alone, which is what lets CI assert alarms exactly.
    """
    config = config or ServingConfig()
    devices = {(e.household, e.device) for e in events}
    config = dataclasses.replace(
        config, max_sessions=max(config.max_sessions, min(len(devices), MAX_OPEN_CONNECTIONS) + 8)
    )
    stream = [
        Utterance((e.household, e.device), e.key, e.source, e.truth, e.slices())
        for e in events
    ]
    # Attack labels appear only on attack-mix days; keying off the
    # events keeps clean-day summaries identical to pre-attack runs.
    labels = list(SOURCES) + sorted({e.source for e in events} - set(SOURCES))
    return await run_streams(
        pipeline,
        bank.captures,
        [stream],
        config=config,
        chunk_samples=chunk_samples,
        sources=tuple(labels),
    )


def run_city_sync(pipeline, bank, events, **kwargs) -> dict:
    """:func:`run_city` for synchronous callers (the CLI, experiments)."""
    return asyncio.run(run_city(pipeline, bank, events, **kwargs))


def summary_from_stats(stats: dict, snapshot: dict | None = None) -> dict:
    """Fold raw drive stats (+ the monitor snapshot) into the summary."""
    summary = {
        "events": stats["events"],
        "decisions": stats["decisions"],
        "errors": stats["errors"],
        "fingerprint_mismatches": stats["fingerprint_mismatches"],
        "early_exit_fraction": stats["early_exits"] / max(stats["decisions"], 1),
        "events_per_sec": stats["decisions"] / max(stats["elapsed_s"], 1e-9),
        **latency_percentiles(stats["latencies_ms"]),
        "sources": {},
    }
    for source, tally in sorted(stats["per_source"].items()):
        negatives = tally["fp"] + tally["tn"]
        positives = tally["fn"] + tally["tp"]
        summary["sources"][source] = {
            "n": tally["n"],
            "far": tally["fp"] / negatives if negatives else 0.0,
            "frr": tally["fn"] / positives if positives else 0.0,
            **latency_percentiles(tally["latencies_ms"]),
        }
    if snapshot:
        summary["alarms"] = snapshot.get("alarms", [])
        summary["monitor_decisions"] = snapshot.get("decisions", 0)
    return summary


def drive_problems(
    stats: dict,
    snapshot: dict | None,
    *,
    expect_quiet: bool = False,
    expect_alarms: bool = False,
    min_events: int = 0,
) -> list[str]:
    """Hard-failure conditions a CI drive must exit nonzero on.

    :func:`~repro.serving.soak.stream_problems` (the soak's gate) plus
    the city's own: too few decisions, client/server confusion
    disagreement, and the drift-alarm expectations.
    """
    problems = stream_problems(stats)
    if min_events and stats["decisions"] < min_events:
        problems.append(f"only {stats['decisions']} decisions (< {min_events} required)")
    if snapshot and not stats["errors"]:
        # Round-trip check: the monitor's per-source confusion (server
        # side, via truth/slices on the wire) must equal the client's
        # tallies from the decision replies.
        server = snapshot.get("sources", {})
        for source, tally in sorted(stats["per_source"].items()):
            if not tally["n"]:
                continue
            entry = server.get(source)
            counters = {k: tally[k] for k in ("tp", "fp", "tn", "fn")}
            if entry is None or any(entry.get(k) != v for k, v in counters.items()):
                problems.append(
                    f"per-source confusion mismatch for {source!r}: "
                    f"client {counters}, server {entry}"
                )
    if snapshot is not None:
        alarms = snapshot.get("alarms", [])
        if expect_quiet and alarms:
            problems.append(
                f"{len(alarms)} drift alarm(s) on traffic expected stationary: "
                + ", ".join(sorted({a["detector"] for a in alarms}))
            )
        if expect_alarms:
            detectors = {a["detector"] for a in alarms}
            missing = sorted(DRIFT_DETECTORS - detectors)
            if missing:
                problems.append(
                    "mix shift did not trip all drift detectors; missing: "
                    + ", ".join(missing)
                )
    elif expect_quiet or expect_alarms:
        problems.append("no monitor snapshot (monitor disabled?); cannot check alarms")
    return problems


def _cli_config(args) -> TrafficConfig:
    """The city the flags describe; a flag not given keeps its default."""
    flags = {
        "households": args.households,
        "seed": args.seed,
        "hours": args.hours,
        "rate_per_household": args.rate,
        "variants": args.variants,
        "shift_hour": args.shift_hour,
        "shift_factor": args.shift_factor,
        "attack_mix": args.attack_mix,
        "attack_sophistication": args.attack_sophistication,
    }
    flags = {k: v for k, v in flags.items() if v is not None}
    if args.rooms:
        flags["rooms"] = tuple(part.strip() for part in args.rooms.split(","))
    if args.shift:
        flags["shift"] = True
    return TrafficConfig(**flags)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--households", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--hours", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None, help="events/household/24h")
    parser.add_argument("--variants", type=int, default=None)
    parser.add_argument("--rooms", default=None, help="comma-separated: lab,home")
    parser.add_argument("--shift", action="store_true", help="enable the mid-day mix shift")
    parser.add_argument("--shift-hour", type=float, default=None)
    parser.add_argument("--shift-factor", type=float, default=None)
    parser.add_argument(
        "--attack-mix", type=float, default=None,
        help="fraction of traffic from the repro.attacks families (0 = clean city)",
    )
    parser.add_argument(
        "--attack-sophistication", type=float, default=None,
        help="attacker tier for attack-mix traffic (1-3, the E30 axis)",
    )
    parser.add_argument(
        "--hardened", action="store_true",
        help="gate with the fused four-cue liveness decision (E30 hardened path)",
    )
    parser.add_argument("--chunk", type=int, default=16384)
    parser.add_argument("--workers", type=int, default=None, help="bank render workers")
    parser.add_argument("--name", default="traffic", help="quality report name")
    parser.add_argument("--out", default="benchmarks/results", help="report directory")
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the summary (plus problems/ok) as JSON for CI",
    )
    parser.add_argument("--min-events", type=int, default=0)
    parser.add_argument(
        "--expect-quiet", action="store_true",
        help="fail if any drift alarm fires (stationary-traffic gate)",
    )
    parser.add_argument(
        "--expect-alarms", action="store_true",
        help="fail unless PSI, KS and Page–Hinkley all fire (shift gate)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = _cli_config(args)
    except ValueError as error:
        parser.error(str(error))
    # The drive *is* a quality measurement: observability and the
    # decision monitor must be live regardless of the environment.
    set_obs_enabled(True)
    reset_monitor(config=_traffic_monitor_config())
    if config.attack_mix > 0.0:
        # Arm the attack layer so the monitor's mislabeled-replay guard
        # knows the adversarial labels in this stream are intentional.
        from ..attacks import set_attacks_enabled

        set_attacks_enabled(True)

    print(
        f"city: {config.households} households, {config.hours:g} h, "
        f"rate {config.rate_per_household:g}/household/day, seed {config.seed}"
        + (f", shift@{config.shift_hour:g}h x{config.shift_factor:g}" if config.shift else "")
        + (
            f", attacks {config.attack_mix:.0%}@tier{config.attack_sophistication:g}"
            + (" (hardened gate)" if args.hardened else "")
            if config.attack_mix > 0
            else ""
        ),
        file=sys.stderr,
    )
    pipeline = build_pipeline(config.seed, hardened=args.hardened)
    bank = CaptureBank(config)
    bank.render(workers=args.workers)
    households, events = generate_city(config)
    print(f"generated {len(events)} events from {len(households)} households", file=sys.stderr)

    serving = dataclasses.replace(ServingConfig.from_env(), check_liveness=True)
    stats = run_city_sync(pipeline, bank, events, config=serving, chunk_samples=args.chunk)
    snapshot = monitor_snapshot() or None
    if snapshot:
        path = write_quality_report(args.name, directory=args.out, snapshot=snapshot)
        print(f"quality report -> {path}", file=sys.stderr)

    problems = drive_problems(
        stats,
        snapshot,
        expect_quiet=args.expect_quiet,
        expect_alarms=args.expect_alarms,
        min_events=args.min_events,
    )
    return finish_cli(summary_from_stats(stats, snapshot), problems, args.json_out, "DRIVE")


if __name__ == "__main__":
    sys.exit(main())
