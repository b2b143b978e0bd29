"""Streaming-vs-batch equivalence: the PR's core contract.

Every tier-1 fixture capture, streamed chunk by chunk through
``StreamingDecider``, must produce a final decision byte-identical to
``pipeline.evaluate`` on the same capture — early exit may shorten
latency (frames_to_decision), never flip verdicts.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import REJECT_DEGRADED_INPUT, REJECT_MECHANICAL, StreamingDecider

FS = 48_000
CHUNK = 2048


def _stream(decider, channels, chunk=CHUNK):
    """Push channels through in fixed-size chunks; collect early events."""
    events = []
    for start in range(0, channels.shape[1], chunk):
        event = decider.push(channels[:, start : start + chunk])
        if event is not None:
            events.append(event)
    return events, decider.finish()


@pytest.fixture(scope="module")
def pipeline(trained_pipeline):
    return trained_pipeline


CAPTURES = ["forward_capture", "backward_capture", "replay_capture", "side_capture"]


class TestEquivalence:
    @pytest.mark.parametrize("name", CAPTURES)
    def test_streaming_fingerprint_equals_batch(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        batch = pipeline.evaluate(capture)
        decider = StreamingDecider(pipeline)
        _, result = _stream(decider, capture.channels)
        assert result.decision.fingerprint() == batch.fingerprint()

    @pytest.mark.parametrize("name", CAPTURES)
    def test_early_verdict_never_flips_the_decision(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, capture.channels)
        assert result.consistent
        for event in events:
            assert not event.accepted
            assert event.accepted == result.decision.accepted or not result.decision.accepted

    @pytest.mark.parametrize("chunk", [2048, 1000, 4096, 333])
    def test_chunk_size_never_changes_the_outcome(self, pipeline, backward_capture, chunk):
        reference = pipeline.evaluate(backward_capture)
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, backward_capture.channels, chunk=chunk)
        assert result.decision.fingerprint() == reference.fingerprint()
        assert result.early_exited


class TestEarlyExit:
    def test_forward_accept_never_exits_early(self, pipeline, forward_capture):
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, forward_capture.channels)
        assert result.decision.accepted
        assert not result.early_exited
        assert events == []
        assert result.frames_to_decision == result.frames_seen

    @pytest.mark.parametrize("name", ["backward_capture", "side_capture"])
    def test_non_facing_rejected_before_end_of_utterance(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, capture.channels)
        assert not result.decision.accepted
        assert result.early_exited
        assert len(events) == 1
        assert result.frames_to_decision < result.frames_seen
        assert result.frames_to_decision == events[0].frame

    def test_replay_rejected_early_as_mechanical(self, pipeline, replay_capture):
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, replay_capture.channels)
        assert result.early_exited
        assert events[0].reason == REJECT_MECHANICAL
        assert result.frames_to_decision < result.frames_seen

    def test_early_frame_is_chunk_invariant(self, pipeline, backward_capture):
        frames = set()
        for chunk in (2048, 1000, 4096, 333):
            decider = StreamingDecider(pipeline)
            _, result = _stream(decider, backward_capture.channels, chunk=chunk)
            assert result.early_exited
            frames.add(result.frames_to_decision)
        assert len(frames) == 1

    def test_median_frames_to_decision_shortens_rejections(
        self, pipeline, backward_capture, replay_capture, side_capture
    ):
        to_decision, seen = [], []
        for capture in (backward_capture, replay_capture, side_capture):
            decider = StreamingDecider(pipeline)
            _, result = _stream(decider, capture.channels)
            to_decision.append(result.frames_to_decision)
            seen.append(result.frames_seen)
        assert float(np.median(to_decision)) < float(np.median(seen))


class TestLifecycle:
    def test_finish_is_idempotent(self, pipeline, forward_capture):
        decider = StreamingDecider(pipeline)
        _stream(decider, forward_capture.channels)
        assert decider.finish() is decider.finish()

    def test_push_after_finish_raises(self, pipeline, forward_capture):
        decider = StreamingDecider(pipeline)
        _, _ = _stream(decider, forward_capture.channels)
        with pytest.raises(RuntimeError):
            decider.push(forward_capture.channels[:, :CHUNK])

    def test_wrong_shape_rejected(self, pipeline):
        decider = StreamingDecider(pipeline)
        with pytest.raises(ValueError):
            decider.push(np.zeros((2, CHUNK)))

    def test_empty_stream_still_decides(self, pipeline):
        decider = StreamingDecider(pipeline)
        result = decider.finish()
        assert not result.decision.accepted
        assert result.frames_seen == 0


class TestMidStreamChannelDeath:
    def test_majority_channel_death_fails_closed(self, pipeline, forward_capture):
        channels = forward_capture.channels
        decider = StreamingDecider(pipeline)
        half = channels.shape[1] // 2
        events = []
        for start in range(0, half, CHUNK):
            event = decider.push(channels[:, start : start + CHUNK])
            assert event is None or not event.accepted
        # Three of four channels die mid-utterance.
        for start in range(half, channels.shape[1], CHUNK):
            chunk = channels[:, start : start + CHUNK].copy()
            chunk[1:, :] = 0.0
            event = decider.push(chunk)
            if event is not None:
                events.append(event)
        assert events, "channel death never fired an early verdict"
        assert events[0].reason == REJECT_DEGRADED_INPUT
        result = decider.finish()
        assert not result.decision.accepted
        assert result.decision.reason == REJECT_DEGRADED_INPUT
        assert result.decision.degraded
        assert result.consistent

    def test_single_dead_channel_degrades_without_failing_closed(self, pipeline, forward_capture):
        channels = forward_capture.channels.copy()
        channels[2, :] = 0.0
        decider = StreamingDecider(pipeline)
        events, result = _stream(decider, channels)
        assert events == []  # early checks are suspended while degraded
        assert decider.degraded
        assert not decider.fail_closed
        # The final verdict is still the batch verdict on the same
        # capture: the full pipeline masks the dead channel itself.
        batch = pipeline.evaluate(Capture(channels=channels, sample_rate=FS))
        assert result.decision.fingerprint() == batch.fingerprint()


def _trace(decider, channels, chunk):
    """Strike counters and early verdict after every push."""
    steps = []
    for start in range(0, channels.shape[1], chunk):
        decider.push(channels[:, start : start + chunk])
        steps.append((decider.checks, decider._liveness_strikes, decider._facing_strikes))
    early = decider.finish().early
    return steps, None if early is None else (early.reason, early.frame)


@pytest.fixture(scope="module")
def hardened(pipeline):
    import dataclasses

    from repro.core import FusedLivenessDetector

    return dataclasses.replace(pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness))


@pytest.fixture(scope="module")
def soak_captures():
    from repro.serving.soak import build_captures

    return build_captures(seed=1)


def _counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestFacingScreen:
    """The framewise screen may only skip facing strikes, never add one."""

    def test_screen_at_one_never_runs_the_exact_facing_path(
        self, pipeline, backward_capture, monkeypatch
    ):
        import repro.core.streaming as streaming
        from repro.core import OrientationFeatureExtractor

        monkeypatch.setattr(StreamingDecider, "_screen_probability", lambda self, audio: 1.0)
        extracts = _counting(monkeypatch, OrientationFeatureExtractor, "extract")
        preprocesses = _counting(monkeypatch, streaming, "preprocess")
        decider = StreamingDecider(pipeline, check_liveness=False)
        for start in range(0, backward_capture.channels.shape[1], CHUNK):
            decider.push(backward_capture.channels[:, start : start + CHUNK])
            assert decider._facing_strikes == 0
        assert decider.checks > 0
        assert extracts == [] and preprocesses == []
        assert decider.early is None

    def test_screened_out_check_resets_the_strikes(self, pipeline, backward_capture, monkeypatch):
        # Let one exact check strike, then screen the next one out: the
        # strike must not survive it, so two in a row never happen.
        monkeypatch.setattr(
            StreamingDecider,
            "_screen_probability",
            lambda self, audio: 1.0 if self._facing_strikes else 0.0,
        )
        decider = StreamingDecider(pipeline, check_liveness=False)
        steps, early = _trace(decider, backward_capture.channels, CHUNK)
        facing = [strikes for _, _, strikes in steps]
        assert 1 in facing
        assert max(facing) == 1
        assert early is None

    @pytest.mark.parametrize("check_liveness", [False, True])
    def test_screen_at_zero_gives_the_unscreened_strike_sequence(
        self, pipeline, backward_capture, side_capture, monkeypatch, check_liveness
    ):
        import repro.core.streaming as streaming

        for capture in (backward_capture, side_capture):
            with monkeypatch.context() as patch:
                patch.setattr(streaming, "FACING_SCREEN_CUTOFF", float("inf"))
                reference = _trace(
                    StreamingDecider(pipeline, check_liveness=check_liveness),
                    capture.channels,
                    CHUNK,
                )
            with monkeypatch.context() as patch:
                patch.setattr(StreamingDecider, "_screen_probability", lambda self, audio: 0.0)
                screened = _trace(
                    StreamingDecider(pipeline, check_liveness=check_liveness),
                    capture.channels,
                    CHUNK,
                )
            assert screened == reference

    @staticmethod
    def _verdicts(pipeline, captures, check_liveness, monkeypatch, unscreened):
        import repro.core.streaming as streaming

        out = []
        with monkeypatch.context() as patch:
            if unscreened:
                patch.setattr(streaming, "FACING_SCREEN_CUTOFF", float("inf"))
            for capture in captures:
                n = capture.channels.shape[1]
                for chunk in (512, 2048, 16384, n):
                    decider = StreamingDecider(pipeline, check_liveness=check_liveness)
                    _, early = _trace(decider, capture.channels, chunk)
                    out.append((chunk if chunk != n else "whole", early))
        return out

    def test_soak_captures_keep_their_early_verdicts(self, pipeline, soak_captures, monkeypatch):
        args = (pipeline, soak_captures, False, monkeypatch)
        verdicts = self._verdicts(*args, unscreened=False)
        assert verdicts == self._verdicts(*args, unscreened=True)
        assert any(early is not None for _, early in verdicts)

    @pytest.mark.parametrize("gate", ["plain", "fused"])
    def test_fixture_captures_keep_their_early_verdicts(
        self, request, pipeline, hardened, monkeypatch, gate
    ):
        captures = [request.getfixturevalue(name) for name in CAPTURES]
        args = (pipeline if gate == "plain" else hardened, captures, True, monkeypatch)
        verdicts = self._verdicts(*args, unscreened=False)
        assert verdicts == self._verdicts(*args, unscreened=True)
        assert any(early is not None for _, early in verdicts)


class TestReferenceChannelLiveness:
    def test_equals_full_preprocess_liveness_at_every_check_point(
        self, pipeline, soak_captures, forward_capture, replay_capture
    ):
        from repro.core import preprocess
        from repro.core.preprocessing import preprocess_reference

        checked = 0
        for capture in [*soak_captures, forward_capture, replay_capture]:
            n_frames = capture.channels.shape[1] // CHUNK
            for frames in range(4, n_frames + 1, 2):
                prefix = Capture(channels=capture.channels[:, : frames * CHUNK], sample_rate=FS)
                full = preprocess(prefix)
                reference = preprocess_reference(prefix)
                assert reference.had_speech == full.had_speech
                if not full.had_speech:
                    continue
                gap = pipeline._liveness_score(reference) - pipeline._liveness_score(full)
                assert abs(gap) <= 1e-12
                checked += 1
        assert checked > 20

    def test_any_screening_vote_falls_back_to_full_preprocess(
        self, pipeline, forward_capture, monkeypatch
    ):
        import repro.core.streaming as streaming

        channels = forward_capture.channels.copy()
        channels[1, CHUNK : 2 * CHUNK] = 0.0  # one chunk votes channel 1 dead
        references = _counting(monkeypatch, streaming, "preprocess_reference")
        fulls = _counting(monkeypatch, streaming, "preprocess")
        decider = StreamingDecider(pipeline)
        for start in range(0, channels.shape[1], CHUNK):
            decider.push(channels[:, start : start + CHUNK])
        assert decider._votes[1] == 1 and not decider.degraded
        assert decider.checks > 0
        assert references == []
        assert fulls

    def test_clean_stream_takes_the_reference_path(
        self, pipeline, hardened, forward_capture, monkeypatch
    ):
        import repro.core.streaming as streaming

        references = _counting(monkeypatch, streaming, "preprocess_reference")
        for gate, expected in ((pipeline, True), (hardened, False)):
            references.clear()
            decider = StreamingDecider(gate)
            _stream(decider, forward_capture.channels)
            assert bool(references) is expected
