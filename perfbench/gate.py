"""Build products: the trained gate under test and the capture banks.

The gate is the traffic drive's recipe (``repro.traffic.drive.
build_pipeline`` with seed 0): TINY-style orientation SVM at traffic
coverage plus a 300-epoch liveness network, on the D2 4-mic subset.
Training is deterministic (the pickled pipeline is byte-identical across
processes), so its weights are a build product of the source tree, like
a compiled binary: the first run in a checkout trains and stores them
under ``.bench_build/``, keyed by a hash of ``src/repro``; every later
run and every spawned system process loads them.  The traced run trains
again from scratch to time the training layers and checks the fresh
weights against the stored ones.

The capture banks (the traffic simulator's rendered archetypes, clean
and with the attack mix) are rendered at the same time, from a fixed
simulator seed: they are the recorded corpus that every run's seeded
traffic draws from, like a load generator's corpus of recordings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import sys
import time
from pathlib import Path

GATE_SEED = 0
BANK_SEED = 0


def source_digest(root: Path) -> str:
    """blake2b over every ``src/repro`` Python file (path + bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build_dir(root: Path) -> Path:
    path = root / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def train_gate(tracer=None):
    """Train the drive's plain-liveness gate; returns ``(pipeline, bytes)``.

    With a ``tracer`` the orientation half (``dataset1`` rendering and
    ``fit_detector``, as the drive module looks them up) is recorded as
    ``setup.train_orientation`` spans; the rest of ``build_pipeline`` is
    the liveness half.
    """
    from repro.traffic import drive

    if tracer is not None:
        tracer.wrap(drive, "dataset1", "setup.train_orientation")
        tracer.wrap(drive, "fit_detector", "setup.train_orientation")
    try:
        pipeline = drive.build_pipeline(GATE_SEED)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return pipeline, pickle.dumps(pipeline, protocol=pickle.HIGHEST_PROTOCOL)


def _store(path: Path, make) -> None:
    if path.exists():
        return
    started = time.perf_counter()
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_bytes(make())
    os.replace(tmp, path)
    print(
        f"perfbench: built {path.name} in {time.perf_counter() - started:.1f} s",
        file=sys.stderr,
        flush=True,
    )


def _render_bank(attack_mix: float) -> bytes:
    from repro.traffic.config import TrafficConfig
    from repro.traffic.sources import CaptureBank

    config = TrafficConfig(seed=BANK_SEED, attack_mix=attack_mix, attack_sophistication=1.0)
    bank = CaptureBank(config).render(workers=1)
    return pickle.dumps(bank, protocol=pickle.HIGHEST_PROTOCOL)


def ensure_build(root: Path, attack_mixes=(0.0, 0.25)) -> dict:
    """Paths of this source tree's gate and banks, building what is missing.

    Returns ``{"gate": path, "bank": {attack_mix: path}}``.
    """
    directory = build_dir(root)
    digest = source_digest(root)
    gate = directory / f"gate-{digest}.pkl"
    _store(gate, lambda: train_gate()[1])
    banks = {}
    for mix in attack_mixes:
        banks[mix] = directory / f"bank-{mix:g}-{digest}.pkl"
        _store(banks[mix], lambda mix=mix: _render_bank(mix))
    return {"gate": gate, "bank": banks}


def load_bank(path: Path) -> dict:
    """Unpickle a bank this benchmark stored: ``{(room, source, variant): Capture}``."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def load_gate(path: Path, hardened: bool = False):
    """Unpickle a gate this benchmark stored; ``hardened`` wraps the
    liveness network in the fused four-cue detector (the drive's
    ``--hardened`` construction)."""
    with open(path, "rb") as handle:
        pipeline = pickle.load(handle)
    if hardened:
        from repro.core.liveness import FusedLivenessDetector

        pipeline = dataclasses.replace(
            pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness)
        )
    return pipeline
