"""Span recording and self-time subtraction.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import types

import pytest

from perfbench.tracing import SpanTable, Tracer, is_early, self_times


def span(name, start, end, parent=-1, utt=""):
    return [name, start, end, parent, utt, None]


def test_self_time_subtracts_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("leaf", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_sum_to_the_top_level_wall_time():
    spans = [span("x", 0.0, 5.0), span("y", 1.0, 2.0, parent=0), span("z", 6.0, 7.0)]
    assert sum(self_times(spans)) == pytest.approx(6.0)
    assert SpanTable(spans).total_self_ms() == pytest.approx(6000.0)


def test_wrapped_calls_record_nesting_utterance_and_attrs():
    module = types.SimpleNamespace()

    class Session:
        utterance_id = "s1-u0001"

        def push(self):
            return module.leaf(2) + 1

    module.leaf = lambda x: x * 2
    tracer = Tracer()
    tracer.wrap(Session, "push", "streaming.push", utt_of=lambda args: args[0].utterance_id)
    tracer.wrap(module, "leaf", "preprocess", attrs_of=lambda args, result: {"out": result})
    session = Session()
    assert session.push() == 5  # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enabled = True
    assert session.push() == 5
    outer, inner = tracer.spans
    assert outer[0] == "streaming.push" and outer[3] == -1 and outer[4] == "s1-u0001"
    assert inner[0] == "preprocess" and inner[3] == 0 and inner[4] == "s1-u0001"
    assert inner[5] == {"out": 4}
    assert is_early(tracer.spans, 1) and not is_early(tracer.spans, 0)
    tracer.unwrap_all()
    tracer.spans.clear()
    assert session.push() == 5 and tracer.spans == []


def test_a_layer_calling_itself_stays_one_span():
    class Detector:
        def fused(self):
            return self.plain()

        def plain(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Detector, "fused", "liveness")
    tracer.wrap(Detector, "plain", "liveness")
    tracer.enabled = True
    Detector().fused()
    assert [s[0] for s in tracer.spans] == ["liveness"]
    tracer.unwrap_all()
