"""In-memory span tracer around the public calls into each repro layer.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces one attribute — a function at the module where its caller looks
it up, or a method on its class — with a timing wrapper.  Each span is
``[name, start, end, parent, utterance, attrs]`` (``parent`` indexes the
enclosing span, -1 at top level); spans stay in memory and are written
once, when the run ends.  A layer calling itself again (the fused
liveness detector calling the plain network) stays one span.

Everything here runs on one thread (the gateway's event loop, or the
batch loop): wrapped calls are synchronous, so a plain stack tracks
nesting.
"""

from __future__ import annotations

import functools
import json
import time

EARLY_ANCESTOR = "streaming.push"
"""Layer calls under a decider push are early checks; the rest are the
final (batch-identical) evaluation."""


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, *, utt_of=None, attrs_of=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``utt_of(args)`` names the utterance (re-read after the call, so
        a call that opens an utterance is attributed to it); otherwise
        the span inherits its parent's.
        ``attrs_of(args, result)`` attaches counts to the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.enabled or (stack and tracer.spans[stack[-1]][0] == name):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if utt_of is not None:
                utt = utt_of(args)
            else:
                utt = tracer.spans[parent][4] if parent >= 0 else ""
            record = [name, time.perf_counter(), 0.0, parent, utt, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if utt_of is not None:
                record[4] = utt_of(args)
            if attrs_of is not None:
                record[5] = attrs_of(args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark attributes time to."""
    import repro.core.controller as controller
    import repro.core.pipeline as pipeline
    import repro.core.streaming as streaming
    import repro.obs.monitor as monitor
    import repro.serving.session as session
    from repro.core.features import OrientationFeatureExtractor
    from repro.core.liveness import FusedLivenessDetector, LivenessDetector
    from repro.core.orientation import OrientationDetector
    from repro.dsp.streaming import GccAccumulator
    from repro.obs.control import obs_enabled

    def session_utt(args):
        return args[0].utterance_id

    def finish_attrs(args, result):
        return {"checks": result.checks, "early": result.early_exited}

    def written(args, result):
        return {"written": obs_enabled()}

    for method in ("begin_wake", "push_audio", "end_wake"):
        tracer.wrap(session.DeviceSession, method, f"serving.{method}", utt_of=session_utt)
    tracer.wrap(streaming.StreamingDecider, "push", "streaming.push")
    tracer.wrap(streaming.StreamingDecider, "finish", "streaming.finish", attrs_of=finish_attrs)
    tracer.wrap(pipeline.HeadTalkPipeline, "evaluate", "pipeline.evaluate")
    tracer.wrap(pipeline.HeadTalkPipeline, "evaluate_batch", "pipeline.evaluate_batch")
    # preprocess is looked up by name in two modules: the decider's
    # early checks and the pipeline's final evaluation.
    tracer.wrap(streaming, "preprocess", "preprocess")
    tracer.wrap(pipeline, "preprocess", "preprocess")
    tracer.wrap(LivenessDetector, "scores", "liveness")
    tracer.wrap(FusedLivenessDetector, "fused_scores", "liveness")
    tracer.wrap(OrientationFeatureExtractor, "extract", "features")
    tracer.wrap(OrientationFeatureExtractor, "extract_batch", "features")
    tracer.wrap(OrientationDetector, "facing_probability", "orientation")
    tracer.wrap(GccAccumulator, "push", "gcc_accumulator.push")
    for module in (session, pipeline, controller, monitor):
        tracer.wrap(module, "audit_record", "obs.audit", attrs_of=written)
    # The pipeline imports monitor_record inside the call, from the module.
    tracer.wrap(monitor, "monitor_record", "obs.monitor")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover (s)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(end - start - covered, 0.0))
    return out


def is_early(spans: list, index: int) -> bool:
    """Whether span ``index`` runs inside a decider push (an early check)."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == EARLY_ANCESTOR:
            return True
        parent = spans[parent][3]
    return False


class SpanTable:
    """Per-name aggregates over one trace."""

    def __init__(self, spans: list):
        self.spans = spans
        self.self_s = self_times(spans)

    def select(self, name: str, early: bool | None = None) -> list[int]:
        return [
            i
            for i, span in enumerate(self.spans)
            if span[0] == name and (early is None or is_early(self.spans, i) == early)
        ]

    def count(self, name: str, early: bool | None = None) -> int:
        return len(self.select(name, early))

    def self_ms(self, name: str, early: bool | None = None) -> float:
        return 1000.0 * sum(self.self_s[i] for i in self.select(name, early))

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (self.spans[i][2] - self.spans[i][1]) for i in self.select(name)]

    def busy_ms_by_utterance(self, prefix: str) -> dict[str, float]:
        """Inclusive ms of top-level spans named ``prefix*``, per utterance."""
        out: dict[str, float] = {}
        for name, start, end, parent, utt, _ in self.spans:
            if parent < 0 and name.startswith(prefix):
                out[utt] = out.get(utt, 0.0) + 1000.0 * (end - start)
        return out

    def total_self_ms(self) -> float:
        return 1000.0 * sum(self.self_s)
