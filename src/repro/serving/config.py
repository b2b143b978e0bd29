"""Serving parameters and their ``REPRO_SERVING_*`` environment knobs.

Every knob has a safe default; malformed values fall back to the
default with a one-time ``RuntimeWarning`` naming the bad value (the
shared :mod:`repro.obs.control` helpers) — a typo in a deploy manifest
must not silently change admission or memory bounds.

Knobs (all optional):

- ``REPRO_SERVING_MAX_SESSIONS`` — concurrent connections before the
  gateway answers ``busy`` (backpressure, never queueing);
- ``REPRO_SERVING_RING_SECONDS`` — per-session ring-buffer capacity;
- ``REPRO_SERVING_HOST`` / ``REPRO_SERVING_PORT`` — bind address
  (port 0 picks a free port).

The early-exit tuning (frame, hop, check cadence, hysteresis and
margins) is not configurable: it is the set of constants in
:mod:`repro.core.streaming` that the early-reject screen was validated
at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..obs.control import env_float as _env_float
from ..obs.control import env_int as _env_int
from ..obs.control import warn_once as _warn_once


@dataclass(frozen=True)
class ServingConfig:
    """Tuning of one gateway process (see module docstring for knobs).

    The transport parameters bound one process's concurrency and
    per-session memory; ``check_liveness`` selects the gate's stages.
    """

    max_sessions: int = 256
    ring_seconds: float = 12.0
    check_liveness: bool = True
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.ring_seconds <= 0:
            raise ValueError("ring_seconds must be positive")

    @classmethod
    def from_env(cls) -> "ServingConfig":
        """Config with every ``REPRO_SERVING_*`` override applied.

        Values that fail their own validation (not just their parse)
        also fall back: a zero session limit warns once and keeps the
        default, like a malformed one.
        """
        defaults = cls()
        values = {
            "max_sessions": _env_int("REPRO_SERVING_MAX_SESSIONS", defaults.max_sessions),
            "ring_seconds": _env_float("REPRO_SERVING_RING_SECONDS", defaults.ring_seconds),
            "host": os.environ.get("REPRO_SERVING_HOST", defaults.host) or defaults.host,
            "port": _env_int("REPRO_SERVING_PORT", defaults.port),
        }
        try:
            return cls(**values)
        except ValueError as error:
            _warn_once(
                "REPRO_SERVING",
                f"invalid REPRO_SERVING_* combination ({error}); using defaults",
            )
            return defaults
