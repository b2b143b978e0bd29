"""ServingConfig env knobs: overrides apply, malformed values warn once."""

import warnings

import pytest

from repro.obs import control as obs_control
from repro.serving.config import ServingConfig


@pytest.fixture(autouse=True)
def fresh_warn_state(monkeypatch):
    """Each test sees a process that has not warned yet."""
    monkeypatch.setattr(obs_control, "_WARNED", set())


def _collect(action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = action()
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestDefaults:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.max_sessions >= 1
        assert config.port == 0

    def test_from_env_without_env_is_defaults(self):
        config, warned = _collect(ServingConfig.from_env)
        assert config == ServingConfig()
        assert warned == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sessions": 0},
            {"ring_seconds": 0.0},
        ],
    )
    def test_direct_construction_validates(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestEnvOverrides:
    def test_overrides_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_MAX_SESSIONS", "32")
        monkeypatch.setenv("REPRO_SERVING_RING_SECONDS", "3.5")
        monkeypatch.setenv("REPRO_SERVING_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVING_PORT", "8099")
        config, warned = _collect(ServingConfig.from_env)
        assert config.max_sessions == 32
        assert config.ring_seconds == 3.5
        assert config.host == "0.0.0.0"
        assert config.port == 8099
        assert warned == []

    def test_malformed_value_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_MAX_SESSIONS", "lots")
        config, warned = _collect(ServingConfig.from_env)
        assert config.max_sessions == ServingConfig().max_sessions
        assert len(warned) == 1
        assert "REPRO_SERVING_MAX_SESSIONS" in str(warned[0].message)
        # Second read in the same process: silent, same fallback.
        config2, warned2 = _collect(ServingConfig.from_env)
        assert config2.max_sessions == config.max_sessions
        assert warned2 == []

    def test_malformed_float_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_RING_SECONDS", "a while")
        config, warned = _collect(ServingConfig.from_env)
        assert config.ring_seconds == ServingConfig().ring_seconds
        assert len(warned) == 1

    def test_parseable_but_invalid_combination_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_MAX_SESSIONS", "-5")
        config, warned = _collect(ServingConfig.from_env)
        assert config == ServingConfig()
        assert len(warned) == 1
        assert "invalid REPRO_SERVING_" in str(warned[0].message)

    def test_empty_value_is_ignored_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVING_MAX_SESSIONS", "")
        config, warned = _collect(ServingConfig.from_env)
        assert config.max_sessions == ServingConfig().max_sessions
        assert warned == []
