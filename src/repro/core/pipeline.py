"""The HeadTalk decision pipeline (Figure 2).

``HeadTalkPipeline`` composes the preprocessing front-end, the liveness
detector and the orientation detector into a single
``evaluate(capture) -> Decision``:

1. denoise + trim + normalize;
2. reject if no speech activity;
3. reject ("mechanical") if the liveness score is below threshold;
4. reject ("non-facing") if the facing probability is below threshold;
5. otherwise accept — only then would audio go to the cloud.

``evaluate_batch`` runs the same gate over a list of captures, one
capture at a time, and adds the summed per-stage timings of the batch.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..acoustics.propagation import Capture
from ..arrays.geometry import MicArray
from ..obs import audit_record, counter_inc, histogram_observe, obs_enabled
from ..obs.profile import profiled
from ..obs.spans import span
from .config import HeadTalkConfig
from .features import OrientationFeatureExtractor
from .liveness import LivenessDetector
from .orientation import OrientationDetector
from .preprocessing import ChannelHealth, DenoisedAudio, preprocess

REJECT_NO_SPEECH = "no-speech"
REJECT_MECHANICAL = "mechanical-source"
REJECT_NON_FACING = "non-facing"
REJECT_DEGRADED_INPUT = "degraded-input"
ACCEPT = "accepted"

# Exceptions the degraded-input guard may convert into a fail-closed
# decision.  Anything else (untrained models, programming errors) still
# raises: fail closed is for *input* trouble, not for misconfiguration.
_FEATURE_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError)


def _describe_health(health: ChannelHealth) -> str:
    """Compact audit detail for a degraded channel-health report."""
    parts = []
    if health.dead:
        parts.append("dead=" + ",".join(str(k) for k in health.dead))
    if health.clipped:
        parts.append("clipped=" + ",".join(str(k) for k in health.clipped))
    if health.non_finite:
        parts.append("non-finite=" + ",".join(str(k) for k in health.non_finite))
    return ";".join(parts)


def capture_key(capture: Capture) -> str:
    """Short stable digest identifying one capture's audio content.

    The audit log's join key: the same rendered scene always hashes to
    the same key, so decisions can be correlated across runs without
    storing waveforms.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.ascontiguousarray(capture.channels).tobytes())
    digest.update(str(capture.channels.shape).encode())
    digest.update(str(capture.sample_rate).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Decision:
    """Outcome of evaluating one wake-word capture.

    ``degraded`` marks decisions made on screened (partially faulty)
    input — including normal verdicts computed from the surviving
    microphone pairs; ``detail`` carries the fail-closed cause or the
    channel-health summary, and ``health`` the full screening report
    when one was taken.
    """

    accepted: bool
    reason: str
    liveness_score: float
    facing_probability: float
    liveness_ms: float
    orientation_ms: float
    preprocess_ms: float = 0.0
    degraded: bool = False
    detail: str = ""
    health: ChannelHealth | None = field(default=None, compare=False)

    @property
    def total_ms(self) -> float:
        """End-to-end decision latency in milliseconds.

        Matches the paper's end-to-end definition: preprocessing plus
        both inference stages (stages that were skipped or short-
        circuited contribute their measured 0).
        """
        return self.preprocess_ms + self.liveness_ms + self.orientation_ms

    def fingerprint(self) -> tuple:
        """The timing-free content of a decision.

        Two runs of the same capture produce equal fingerprints whenever
        the underlying math is bit-identical — the equivalence contract
        of the serial/parallel/cached paths (wall-clock fields can never
        reproduce).
        """
        return (
            self.accepted,
            self.reason,
            self.liveness_score,
            self.facing_probability,
            self.degraded,
            self.detail,
        )


@dataclass(frozen=True)
class BatchStageTimings:
    """Wall-clock per pipeline stage for one ``evaluate_batch`` call.

    Each field sums the batch decisions' own measured stage times.
    """

    n_captures: int
    preprocess_ms: float
    liveness_ms: float
    orientation_ms: float

    @property
    def total_ms(self) -> float:
        """Whole-batch latency across all stages."""
        return self.preprocess_ms + self.liveness_ms + self.orientation_ms

    @property
    def per_capture_ms(self) -> float:
        """Mean end-to-end latency per capture."""
        return self.total_ms / self.n_captures if self.n_captures else 0.0


@dataclass(frozen=True)
class BatchEvaluation:
    """Decisions plus stage timings for one batch."""

    decisions: list[Decision]
    timings: BatchStageTimings

    def __iter__(self):
        return iter(self.decisions)

    def __len__(self) -> int:
        return len(self.decisions)


@dataclass
class HeadTalkPipeline:
    """Liveness + orientation gate over wake-word captures.

    Both detectors must be trained (see ``core.enrollment`` and
    ``LivenessDetector.fit``) before calling :meth:`evaluate`.
    """

    array: MicArray
    liveness: LivenessDetector
    orientation: OrientationDetector
    config: HeadTalkConfig = field(default_factory=HeadTalkConfig)
    extractor: OrientationFeatureExtractor | None = None

    def __post_init__(self) -> None:
        if self.extractor is None:
            self.extractor = OrientationFeatureExtractor(self.array)

    def _capture_problem(self, capture: Capture) -> str | None:
        """Up-front structural validation against the array geometry.

        Returns a short cause string (``None`` when the capture is
        well-formed).  The pipeline maps causes to fail-closed
        :data:`REJECT_DEGRADED_INPUT` decisions instead of raising — a
        privacy gate that crashes on a malformed capture is a gate that
        stopped gating.
        """
        if capture.n_mics != self.array.n_mics:
            return (
                f"channel-count:capture={capture.n_mics},array={self.array.n_mics}"
            )
        if capture.sample_rate != self.array.sample_rate:
            return (
                f"sample-rate:capture={capture.sample_rate},"
                f"array={self.array.sample_rate}"
            )
        if capture.n_samples == 0:
            return "empty-capture"
        return None

    def _degraded_decision(
        self,
        detail: str,
        preprocess_ms: float = 0.0,
        liveness_score: float = 0.0,
        liveness_ms: float = 0.0,
        health: ChannelHealth | None = None,
    ) -> Decision:
        """Fail-closed decision for input the gate cannot safely judge."""
        return Decision(
            accepted=False,
            reason=REJECT_DEGRADED_INPUT,
            liveness_score=liveness_score,
            facing_probability=0.0,
            liveness_ms=liveness_ms,
            orientation_ms=0.0,
            preprocess_ms=preprocess_ms,
            degraded=True,
            detail=detail,
            health=health,
        )

    @property
    def fused_liveness(self) -> bool:
        """Whether liveness reads the multi-channel array cues too."""
        return hasattr(self.liveness, "fused_scores")

    def _liveness_score(self, audio: DenoisedAudio, gcc: np.ndarray | None = None) -> float:
        # A fused detector gets the full multi-channel audio so the
        # array-side cues (TDoA coherence, directivity consistency) join
        # the blend; the plain detector sees the reference channel only.
        # ``gcc`` is the extractor's GCC of ``audio``, when already known.
        if self.fused_liveness:
            gccs = None if gcc is None else [gcc]
            return float(self.liveness.fused_scores([audio], self.extractor, gccs)[0])
        return float(self.liveness.scores([audio.reference], audio.sample_rate)[0])

    def _facing_probability(self, features: np.ndarray) -> float:
        return float(self.orientation.facing_probability(features.reshape(1, -1))[0])

    def _observe_decision(
        self,
        call: str,
        capture: Capture,
        decision: Decision,
        batch_size: int | None = None,
        batch_index: int | None = None,
        truth: bool | None = None,
        slices: dict | None = None,
        extra: dict | None = None,
    ) -> None:
        """Metrics + audit record for one decision (observability on only)."""
        # Lazy like worker_totals: keeps ``python -m repro.obs.monitor``
        # clean of runpy's already-imported warning (repro's eager core
        # import would otherwise pull the monitor in first).
        from ..obs.monitor import monitor_record
        from ..obs.workers import worker_totals
        from ..runtime.cache import cache_counts

        counter_inc("pipeline.decisions", call=call, reason=decision.reason)
        if decision.degraded:
            counter_inc("faults.degraded_decisions", reason=decision.reason)
        if decision.reason == REJECT_DEGRADED_INPUT:
            cause = decision.detail.split(":", 1)[0].split(";", 1)[0] or "unknown"
            counter_inc("faults.fail_closed", cause=cause)
        if call == "evaluate":
            histogram_observe("pipeline.stage_ms", decision.preprocess_ms, stage="preprocess")
            histogram_observe("pipeline.stage_ms", decision.liveness_ms, stage="liveness")
            histogram_observe("pipeline.stage_ms", decision.orientation_ms, stage="orientation")
            histogram_observe("pipeline.total_ms", decision.total_ms)
        record = {
            "call": call,
            "capture_key": capture_key(capture),
            "accepted": decision.accepted,
            "reason": decision.reason,
            "liveness_score": decision.liveness_score,
            "facing_probability": decision.facing_probability,
            "preprocess_ms": decision.preprocess_ms,
            "liveness_ms": decision.liveness_ms,
            "orientation_ms": decision.orientation_ms,
            "total_ms": decision.total_ms,
            "cache": cache_counts(),
            # Pool workers hold their own render caches; their merged
            # sidecar totals are the only view of worker-side behaviour.
            "worker_cache": worker_totals(),
        }
        if decision.degraded:
            record["degraded"] = True
        if decision.detail:
            record["detail"] = decision.detail
        if decision.health is not None and decision.health.is_degraded:
            record["health"] = decision.health.to_dict()
        if batch_size is not None:
            record["batch_size"] = batch_size
            record["batch_index"] = batch_index
        # Ground truth + slice labels ride along when the caller knows
        # them (experiments, dataset replays, scripted sessions), so the
        # quality monitor — live here, or offline replaying the JSONL —
        # can maintain sliced FAR/FRR and calibration state.
        if truth is not None:
            record["truth"] = bool(truth)
        if slices:
            record["slices"] = {str(axis): str(label) for axis, label in slices.items()}
        # Caller-level context (the serving layer's session id and
        # frames-to-decision, a replay's source tag, ...) rides along in
        # the same record so one JSONL line fully describes the decision.
        if extra:
            for key, value in extra.items():
                record.setdefault(str(key), value)
        audit_record("decision", **record)
        monitor_record(record)

    def evaluate(
        self,
        capture: Capture,
        check_liveness: bool = True,
        *,
        truth: bool | None = None,
        slices: dict | None = None,
        call: str = "evaluate",
        extra: dict | None = None,
    ) -> Decision:
        """Run the full gate for one capture.

        With observability enabled (:mod:`repro.obs`) the call is traced
        as a ``pipeline.evaluate`` span with one child span per stage,
        the stage latencies land in the ``pipeline.stage_ms`` histograms
        and the outcome is appended to the decision audit log.  ``truth``
        (the ground-truth should-accept bit, when the caller knows it)
        and ``slices`` (scene labels, e.g. from
        :func:`repro.obs.monitor.slices_from_meta`) annotate the audit
        record and feed the decision-quality monitor; both are ignored
        while observability is off.

        ``call`` names the entry point in the audit record (the serving
        layer evaluates through here with ``call="serving"`` so replays
        can separate streaming from batch decisions) and ``extra``
        attaches caller context fields (session id, frames-to-decision)
        to the same record.  Neither changes the decision.
        """
        with span("pipeline.evaluate"):
            decision = self._evaluate_one(capture, check_liveness)
        if obs_enabled():
            self._observe_decision(
                call, capture, decision, truth=truth, slices=slices, extra=extra
            )
        return decision

    def _evaluate_one(self, capture: Capture, check_liveness: bool) -> Decision:
        problem = self._capture_problem(capture)
        if problem is not None:
            return self._degraded_decision(problem)
        with span("pipeline.preprocess"):
            start = time.perf_counter()
            audio = preprocess(capture)
            preprocess_ms = (time.perf_counter() - start) * 1000.0

        health = audio.health
        degraded = health is not None and health.is_degraded
        health_detail = _describe_health(health) if degraded else ""
        healthy = health.healthy if health is not None else tuple(range(capture.n_mics))
        if degraded and len(healthy) < 2:
            return self._degraded_decision(
                f"no-healthy-pair;{health_detail}", preprocess_ms, health=health
            )

        if not audio.had_speech:
            return Decision(
                accepted=False,
                reason=REJECT_NO_SPEECH,
                liveness_score=0.0,
                facing_probability=0.0,
                liveness_ms=0.0,
                orientation_ms=0.0,
                preprocess_ms=preprocess_ms,
                degraded=degraded,
                detail=health_detail,
                health=health,
            )

        liveness_score = 1.0
        liveness_ms = 0.0
        gcc = None
        if check_liveness:
            with span("pipeline.liveness"):
                start = time.perf_counter()
                if self.fused_liveness and not degraded:
                    # The array cues and the orientation features read
                    # the same whole-utterance GCC: correlate once.
                    gcc = self.extractor.gcc(audio)
                liveness_score = self._liveness_score(audio, gcc)
                liveness_ms = (time.perf_counter() - start) * 1000.0
            if not np.isfinite(liveness_score):
                return self._degraded_decision(
                    "non-finite-liveness-score",
                    preprocess_ms,
                    liveness_ms=liveness_ms,
                    health=health,
                )
            if liveness_score < self.config.liveness_threshold:
                return Decision(
                    accepted=False,
                    reason=REJECT_MECHANICAL,
                    liveness_score=liveness_score,
                    facing_probability=0.0,
                    liveness_ms=liveness_ms,
                    orientation_ms=0.0,
                    preprocess_ms=preprocess_ms,
                    degraded=degraded,
                    detail=health_detail,
                    health=health,
                )

        with span("pipeline.orientation"):
            start = time.perf_counter()
            try:
                if degraded:
                    features = self.extractor.extract_masked(audio, healthy)
                elif gcc is None:
                    features = self.extractor.extract(audio)
                else:
                    features = self.extractor.extract(audio, gcc)
                facing_probability = self._orientation_probability(features)
            except _FEATURE_ERRORS as error:
                orientation_ms = (time.perf_counter() - start) * 1000.0
                return replace(
                    self._degraded_decision(
                        f"feature-error:{error}",
                        preprocess_ms,
                        liveness_score=liveness_score,
                        liveness_ms=liveness_ms,
                        health=health,
                    ),
                    orientation_ms=orientation_ms,
                )
            orientation_ms = (time.perf_counter() - start) * 1000.0
        accepted = facing_probability >= self.config.facing_threshold
        return Decision(
            accepted=accepted,
            reason=ACCEPT if accepted else REJECT_NON_FACING,
            liveness_score=liveness_score,
            facing_probability=facing_probability,
            liveness_ms=liveness_ms,
            orientation_ms=orientation_ms,
            preprocess_ms=preprocess_ms,
            degraded=degraded,
            detail=health_detail,
            health=health,
        )

    def _orientation_probability(self, features: np.ndarray) -> float:
        """Facing probability with the non-finite feature guard applied.

        NaN/Inf escaping the extractor must never reach the SVM or the
        liveness models — it maps to a :data:`REJECT_DEGRADED_INPUT`
        decision at the pipeline boundary via :data:`_FEATURE_ERRORS`.
        """
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite-features")
        return self._facing_probability(features)

    def evaluate_batch(
        self,
        captures: list[Capture],
        check_liveness: bool = True,
        *,
        truths: list | None = None,
        slices: list | None = None,
    ) -> BatchEvaluation:
        """Run the gate over many captures, one :meth:`evaluate` ladder each.

        Decisions are exactly those of :meth:`evaluate` per capture; the
        returned timings sum each decision's measured stage times.

        ``truths`` / ``slices`` optionally carry one ground-truth label /
        slice-label dict per capture (``None`` entries allowed) for the
        decision-quality monitor; like the other observability hooks
        they cost nothing while observability is off.
        """
        if not captures:
            raise ValueError("captures must be non-empty")
        if truths is not None and len(truths) != len(captures):
            raise ValueError("truths must align with captures")
        if slices is not None and len(slices) != len(captures):
            raise ValueError("slices must align with captures")
        with profiled("pipeline.evaluate_batch"), span(
            "pipeline.evaluate_batch", n=len(captures)
        ):
            decisions = [self._evaluate_one(c, check_liveness) for c in captures]
        timings = BatchStageTimings(
            n_captures=len(decisions),
            preprocess_ms=sum(d.preprocess_ms for d in decisions),
            liveness_ms=sum(d.liveness_ms for d in decisions),
            orientation_ms=sum(d.orientation_ms for d in decisions),
        )
        if obs_enabled():
            histogram_observe("pipeline.batch_stage_ms", timings.preprocess_ms, stage="preprocess")
            histogram_observe("pipeline.batch_stage_ms", timings.liveness_ms, stage="liveness")
            histogram_observe("pipeline.batch_stage_ms", timings.orientation_ms, stage="orientation")
            histogram_observe("pipeline.batch_per_capture_ms", timings.per_capture_ms)
            for index, (capture, decision) in enumerate(zip(captures, decisions)):
                self._observe_decision(
                    "evaluate_batch",
                    capture,
                    decision,
                    batch_size=len(captures),
                    batch_index=index,
                    truth=None if truths is None else truths[index],
                    slices=None if slices is None else slices[index],
                )
        return BatchEvaluation(decisions=decisions, timings=timings)
