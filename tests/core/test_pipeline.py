"""Tests for the HeadTalk decision pipeline."""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import (
    ACCEPT,
    REJECT_DEGRADED_INPUT,
    REJECT_MECHANICAL,
    REJECT_NO_SPEECH,
    REJECT_NON_FACING,
)

FS = 48_000


@pytest.fixture(scope="module")
def pipeline(trained_pipeline):
    """A fully trained pipeline over fixture-style captures.

    The training recipe lives in ``tests/conftest.py`` as the
    session-scoped ``trained_pipeline`` fixture so the streaming and
    serving tests judge captures with the exact same models.
    """
    return trained_pipeline


class TestDecisions:
    def test_forward_human_accepted(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture)
        assert decision.accepted
        assert decision.reason == ACCEPT
        assert decision.facing_probability >= 0.5

    def test_backward_human_soft_rejected(self, pipeline, backward_capture):
        """Orientation path: liveness skipped so the non-facing rejection
        is exercised directly (a tiny liveness net can also reject
        backward speech as mechanical, which is a different test)."""
        decision = pipeline.evaluate(backward_capture, check_liveness=False)
        assert not decision.accepted
        assert decision.reason == REJECT_NON_FACING

    def test_backward_human_rejected_with_liveness_on(self, pipeline, backward_capture):
        decision = pipeline.evaluate(backward_capture)
        assert not decision.accepted
        assert decision.reason in (REJECT_NON_FACING, REJECT_MECHANICAL)

    def test_replay_rejected_as_mechanical(self, pipeline, replay_capture):
        decision = pipeline.evaluate(replay_capture)
        assert not decision.accepted
        assert decision.reason in (REJECT_MECHANICAL, REJECT_NON_FACING)

    def test_silence_rejected_without_model_calls(self, pipeline):
        silent = Capture(channels=np.zeros((4, FS // 4)), sample_rate=FS)
        decision = pipeline.evaluate(silent)
        assert not decision.accepted
        assert decision.reason == REJECT_NO_SPEECH
        assert decision.liveness_ms == 0.0

    def test_liveness_can_be_skipped(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture, check_liveness=False)
        assert decision.liveness_score == 1.0
        assert decision.liveness_ms == 0.0

    def test_latency_recorded(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture)
        assert decision.orientation_ms > 0
        assert decision.preprocess_ms > 0
        assert decision.total_ms == pytest.approx(
            decision.preprocess_ms + decision.liveness_ms + decision.orientation_ms
        )

    def test_batch_matches_serial(self, pipeline, forward_capture, backward_capture, replay_capture):
        captures = [forward_capture, backward_capture, replay_capture]
        serial = [pipeline.evaluate(c) for c in captures]
        batch = pipeline.evaluate_batch(captures)
        assert len(batch) == len(captures)
        for one, many in zip(serial, batch):
            assert many.fingerprint() == one.fingerprint()
        assert batch.timings.n_captures == len(captures)
        assert batch.timings.total_ms == pytest.approx(
            batch.timings.preprocess_ms
            + batch.timings.liveness_ms
            + batch.timings.orientation_ms
        )

    def test_batch_handles_silence_and_skip_liveness(self, pipeline, forward_capture):
        silent = Capture(channels=np.zeros((4, FS // 4)), sample_rate=FS)
        batch = pipeline.evaluate_batch([silent, forward_capture], check_liveness=False)
        first, second = batch.decisions
        assert first.reason == REJECT_NO_SPEECH
        assert first.liveness_ms == 0.0 and first.orientation_ms == 0.0
        assert second.liveness_score == 1.0
        assert second.fingerprint() == pipeline.evaluate(
            forward_capture, check_liveness=False
        ).fingerprint()

    def test_batch_rejects_empty(self, pipeline):
        with pytest.raises(ValueError, match="non-empty"):
            pipeline.evaluate_batch([])

    def test_channel_mismatch_rejected(self, pipeline):
        bad = Capture(channels=np.zeros((2, FS // 4)), sample_rate=FS)
        decision = pipeline.evaluate(bad)
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.degraded
        assert decision.detail.startswith("channel-count:")

    def test_sample_rate_mismatch_rejected(self, pipeline, forward_capture):
        bad = Capture(channels=forward_capture.channels, sample_rate=FS // 2)
        decision = pipeline.evaluate(bad)
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.detail.startswith("sample-rate:")


class TestHardenedGccOnce:
    """The fused detector's array cues and the orientation features share
    one whole-utterance GCC pass."""

    @pytest.fixture(scope="class")
    def hardened(self, trained_pipeline):
        import dataclasses

        from repro.core import FusedLivenessDetector

        return dataclasses.replace(
            trained_pipeline, liveness=FusedLivenessDetector(base=trained_pipeline.liveness)
        )

    @pytest.mark.parametrize(
        "name", ["forward_capture", "backward_capture", "side_capture", "replay_capture"]
    )
    def test_one_pairwise_gcc_per_decision(self, request, hardened, monkeypatch, name):
        import repro.core.features as features
        from repro.core import preprocess

        capture = request.getfixturevalue(name)
        calls = []
        original = features.pairwise_gcc

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(features, "pairwise_gcc", counted)
        decision = hardened.evaluate(capture)
        assert len(calls) == 1
        if name == "forward_capture":
            assert decision.reason == ACCEPT  # reached orientation

        # Unchanged scores: each consumer computing its own GCC gives
        # the same floats.
        audio = preprocess(capture)
        extractor = hardened.extractor
        liveness = float(hardened.liveness.fused_scores([audio], extractor)[0])
        facing = hardened._orientation_probability(extractor.extract(audio))
        assert decision.liveness_score == liveness
        if decision.reason in (ACCEPT, REJECT_NON_FACING):
            assert decision.facing_probability == facing

    def test_batch_correlates_once_per_capture(self, request, hardened, monkeypatch):
        import repro.core.features as features

        names = ["forward_capture", "backward_capture", "side_capture", "replay_capture"]
        captures = [request.getfixturevalue(name) for name in names]
        correlated = []  # one entry per whole-utterance correlation
        original = features.pairwise_gcc
        original_batch = getattr(features, "pairwise_gcc_batch", None)

        def counted(*args, **kwargs):
            correlated.append(1)
            return original(*args, **kwargs)

        def counted_batch(batch, *args, **kwargs):
            correlated.extend([1] * len(batch))
            return original_batch(batch, *args, **kwargs)

        monkeypatch.setattr(features, "pairwise_gcc", counted)
        monkeypatch.setattr(features, "pairwise_gcc_batch", counted_batch, raising=False)
        batch = hardened.evaluate_batch(captures)
        assert len(correlated) == len(captures)

        monkeypatch.setattr(features, "pairwise_gcc", original)
        for capture, decision in zip(captures, batch):
            assert decision.fingerprint() == hardened.evaluate(capture).fingerprint()
