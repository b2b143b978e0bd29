"""Env plumbing and master-switch behavior of repro.attacks.control."""

import pytest

from repro.attacks import (
    ATTACK_SOURCE_CLASSES,
    AttackScenario,
    PRESET_NAMES,
    SOPHISTICATION_TIERS,
    attacks_enabled,
    preset_attack,
    set_attacks_enabled,
)


class TestScenarioPresets:
    def test_presets_cover_all_families(self):
        assert set(PRESET_NAMES) == set(ATTACK_SOURCE_CLASSES)
        assert len(PRESET_NAMES) == 4

    def test_tiers_are_ascending(self):
        assert list(SOPHISTICATION_TIERS) == sorted(SOPHISTICATION_TIERS)

    def test_preset_names_scenario(self):
        scenario = preset_attack("eq-replay", sophistication=2.0, seed=5)
        assert scenario.name == "eq-replay@2"
        assert scenario.kind == "eq-replay"
        assert scenario.seed == 5

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown attack"):
            preset_attack("frobnicate")

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            AttackScenario(name="x", kind="not-a-kind")
        with pytest.raises(ValueError):
            AttackScenario(name="x", kind="eq-replay", sophistication=-2.0)

    def test_source_for_builds_family(self):
        from repro.acoustics import HumanSpeaker
        import numpy as np

        voice = HumanSpeaker.random(np.random.default_rng(0))
        for kind, cls in ATTACK_SOURCE_CLASSES.items():
            source = preset_attack(kind, seed=3).source_for(voice)
            assert isinstance(source, cls)
            assert source.seed == 3


class TestControlPlumbing:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        set_attacks_enabled(False)

    def test_disabled_by_default(self):
        assert not attacks_enabled()

    def test_env_enables_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACKS", "1")
        assert attacks_enabled()
