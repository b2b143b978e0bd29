"""``repro.attacks`` — the deterministic adversarial-source layer.

Where :mod:`repro.faults` injects *accidental* hardware corruption,
this package models *adversaries*: replay attackers who know how the
liveness and orientation gates work and shape their playback to defeat
them (ROADMAP item 4).  Four attacker families ship as
``emit()``-compatible acoustic sources (:mod:`repro.attacks.models`),
wrapped in seeded, sophistication-scaled scenarios
(:mod:`repro.attacks.scenario`), rendered deterministically
(:mod:`repro.attacks.corpus`), with one master switch
(``REPRO_ATTACKS``, :mod:`repro.attacks.control`).

The layer is strictly opt-in: with ``REPRO_ATTACKS`` unset nothing in
any render or decision path changes, byte for byte.
"""

from .control import attacks_enabled, set_attacks_enabled
from .corpus import ATTACK_LOCATIONS, attack_render_tasks, render_attack_captures
from .models import (
    DirectionalHornReplay,
    EqCompensatedReplay,
    MultiSpeakerTdoaAttack,
    SpeakeARChannel,
    attack_rng,
    attack_stream_key,
    coordinated_mix,
    eq_compensate,
    horn_directivity,
    rig_directivity,
    speakear_capture,
)
from .scenario import (
    ATTACK_SOURCE_CLASSES,
    AttackScenario,
    PRESET_NAMES,
    SOPHISTICATION_TIERS,
    preset_attack,
)

__all__ = [
    "ATTACK_LOCATIONS",
    "ATTACK_SOURCE_CLASSES",
    "AttackScenario",
    "DirectionalHornReplay",
    "EqCompensatedReplay",
    "MultiSpeakerTdoaAttack",
    "PRESET_NAMES",
    "SOPHISTICATION_TIERS",
    "SpeakeARChannel",
    "attack_render_tasks",
    "attack_rng",
    "attack_stream_key",
    "attacks_enabled",
    "coordinated_mix",
    "eq_compensate",
    "horn_directivity",
    "preset_attack",
    "render_attack_captures",
    "rig_directivity",
    "set_attacks_enabled",
    "speakear_capture",
]
