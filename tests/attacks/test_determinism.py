"""Determinism of attack rendering: pure function of (seed, scenario, content).

The layer's contract mirrors repro.faults: an attack render is
byte-identical serially, in any pool worker, in any order, with shared
memory on or off, and at either decision dtype.
"""

import numpy as np
import pytest

from repro.acoustics import HumanSpeaker
from repro.attacks import (
    PRESET_NAMES,
    attack_render_tasks,
    attack_rng,
    attack_stream_key,
    preset_attack,
    render_attack_captures,
)
from repro.dsp.precision import precision
from repro.runtime import render_captures, set_shm_enabled, shm_enabled

FS = 48_000


def _scenario(kind="eq-replay", tier=2.0, seed=7):
    return preset_attack(kind, sophistication=tier, seed=seed)


class TestStreamKeys:
    def test_content_keyed_not_identity_keyed(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert attack_stream_key(x, FS) == attack_stream_key(x.copy(), FS)

    def test_sample_rate_in_key(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert attack_stream_key(x, FS) != attack_stream_key(x, FS // 2)

    def test_content_changes_key(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert attack_stream_key(x, FS) != attack_stream_key(x * 0.5, FS)

    def test_rng_depends_on_all_parts(self):
        key = attack_stream_key(np.ones(64), FS)
        base = attack_rng(0, "attack-eq", key).integers(1 << 30)
        assert attack_rng(1, "attack-eq", key).integers(1 << 30) != base
        assert attack_rng(0, "attack-horn", key).integers(1 << 30) != base


class TestEmissionDeterminism:
    @pytest.mark.parametrize("kind", sorted(PRESET_NAMES))
    def test_same_emission_same_bytes(self, kind):
        voice = HumanSpeaker.random(np.random.default_rng(0), name="victim")
        source = _scenario(kind).source_for(voice)
        a = source.emit("computer", FS, np.random.default_rng(1)).waveform
        b = source.emit("computer", FS, np.random.default_rng(1)).waveform
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        voice = HumanSpeaker.random(np.random.default_rng(0), name="victim")
        a = _scenario(seed=0).source_for(voice).emit("computer", FS, np.random.default_rng(1))
        b = _scenario(seed=1).source_for(voice).emit("computer", FS, np.random.default_rng(1))
        assert not np.array_equal(a.waveform, b.waveform)


class TestRenderDeterminism:
    def test_tasks_are_reproducible(self):
        first = render_attack_captures(_scenario(), n_utterances=2)
        second = render_attack_captures(_scenario(), n_utterances=2)
        for a, b in zip(first, second):
            assert np.array_equal(a.channels, b.channels)

    def test_serial_vs_pool_identical(self):
        tasks = attack_render_tasks(_scenario("tdoa-replay", 3.0), n_utterances=3)
        serial = render_captures(tasks, workers=1)
        pooled = render_captures(tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    @pytest.mark.parametrize("shm", [False, True])
    def test_pool_identical_with_and_without_shm(self, shm):
        previous = shm_enabled()
        set_shm_enabled(shm)
        try:
            tasks = attack_render_tasks(_scenario(), n_utterances=2)
            serial = render_captures(tasks, workers=1)
            pooled = render_captures(tasks, workers=2)
        finally:
            set_shm_enabled(previous)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    def test_render_bytes_independent_of_decision_dtype(self):
        """REPRO_DTYPE flips the decision path, never the rendered audio."""
        tasks32 = attack_render_tasks(_scenario("speakear"), n_utterances=2)
        with precision("float32"):
            rendered32 = render_captures(tasks32, workers=1)
        with precision("float64"):
            rendered64 = render_captures(
                attack_render_tasks(_scenario("speakear"), n_utterances=2), workers=1
            )
        for a, b in zip(rendered32, rendered64):
            assert np.array_equal(a.channels, b.channels)

    def test_scenario_seed_changes_render(self):
        a = render_attack_captures(_scenario(seed=0), n_utterances=1)[0]
        b = render_attack_captures(_scenario(seed=1), n_utterances=1)[0]
        assert not np.array_equal(a.channels, b.channels)

    def test_default_off_leaves_clean_renders_untouched(self):
        """Arming the layer alone leaves ordinary dataset renders unchanged."""
        from repro.attacks import attacks_enabled, set_attacks_enabled
        from repro.datasets.collection import render_tasks
        from tests.runtime.test_runtime import SPEC

        tasks = [task for _, task in render_tasks(SPEC)]
        baseline = render_captures(tasks[:1], workers=1)[0]
        assert not attacks_enabled()
        set_attacks_enabled(True)
        try:
            armed = render_captures(tasks[:1], workers=1)[0]
        finally:
            set_attacks_enabled(False)
        assert np.array_equal(baseline.channels, armed.channels)
