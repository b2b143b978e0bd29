"""Master switch for the adversarial layer.

One process-global flag read from ``REPRO_ATTACKS`` (overridable
programmatically with :func:`set_attacks_enabled`).  Enabling it
renders nothing adversarial by itself; it arms the traffic attack mix
and the monitor's mislabeled-replay guard.  Attack captures are
rendered from explicit :class:`~repro.attacks.scenario.AttackScenario`
objects (:mod:`repro.attacks.corpus`), never from ambient state.
"""

from __future__ import annotations

from ..obs.control import env_truthy

__all__ = ["attacks_enabled", "set_attacks_enabled"]

_ENABLED = env_truthy("REPRO_ATTACKS")


def attacks_enabled() -> bool:
    """Whether the adversarial layer is active for this process.

    True when enabled programmatically (:func:`set_attacks_enabled`)
    *or* when ``REPRO_ATTACKS`` is truthy right now.  The environment is
    re-read on every call so forked or spawned pool workers see the
    operator's ``REPRO_ATTACKS=1`` even when their import-time snapshot
    predates it (the :mod:`repro.faults.control` convention).
    """
    return _ENABLED or env_truthy("REPRO_ATTACKS")


def set_attacks_enabled(enabled: bool) -> None:
    """Turn the adversarial layer on or off globally."""
    global _ENABLED
    _ENABLED = bool(enabled)
