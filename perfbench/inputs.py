"""Seeded inputs: the capture bank, the event sequence and per-event dither.

Every input is a function of the workload seed and the stored capture
bank (the traffic simulator's rendered ``(room, source, variant)``
archetypes, see ``gate.py``).  An event plays one archetype plus its
own seeded white dither (~80 dB below the capture), so no two
utterances carry byte-identical audio and a content-keyed cache could
never turn a repeat into a hit.

Events are stratified so that two seeds differ in order, timing and
dither but not in how much work they ask for.  A fixed base sequence
comes in blocks of :data:`MIX_BLOCK` whose source counts follow the
configured mix exactly (largest remainder), each source cycling through
its ``(room, variant)`` archetypes so every archetype recurs equally
often; the seed shuffles the order within each block.  Every phase of a
run starts at a multiple of :data:`PHASE_SLOT` and reads the base
sequence from its start, so equal-length segments at the same offset —
of one run or of two seeds — carry the same multiset of archetypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DITHER_REL = 1e-4
MIX_BLOCK = 20
PHASE_SLOT = 1000  # event indices per phase; a multiple of MIX_BLOCK


@dataclass(frozen=True)
class Event:
    index: int
    key: tuple  # bank key (room, source, variant)
    source: str
    truth: bool

    def slices(self) -> dict:
        return {"source": self.source, "room": self.key[0]}


def block_counts(mix, size: int) -> list[tuple[str, int]]:
    """Largest-remainder integer counts per source for one block."""
    total = sum(weight for _, weight in mix)
    exact = [(name, size * weight / total) for name, weight in mix]
    counts = {name: int(share) for name, share in exact}
    spare = size - sum(counts.values())
    for name, share in sorted(exact, key=lambda item: item[1] - int(item[1]), reverse=True)[:spare]:
        counts[name] += 1
    return [(name, counts[name]) for name, _ in mix]


class EventStream:
    """Deterministic, unbounded event sequence for one workload seed."""

    def __init__(self, seed: int, bank: dict, attack_mix: float):
        from repro.traffic.config import TRUTH_BY_SOURCE, TrafficConfig

        self.seed = seed
        self.bank = bank
        self._truth = TRUTH_BY_SOURCE
        self._base_rng = np.random.default_rng(1)
        self._base: list[tuple[str, tuple]] = []
        self._archetypes: dict[str, list[tuple]] = {}
        for key in sorted(bank):
            self._archetypes.setdefault(key[1], []).append(key)
        self._cycles: dict[str, list[tuple]] = {}
        self._block = [
            name
            for name, count in block_counts(
                TrafficConfig(attack_mix=attack_mix).event_mix(), MIX_BLOCK
            )
            for _ in range(count)
        ]

    def _next_archetype(self, source: str) -> tuple:
        cycle = self._cycles.get(source)
        if not cycle:
            keys = self._archetypes[source]
            cycle = self._cycles[source] = [keys[k] for k in self._base_rng.permutation(len(keys))]
        return cycle.pop()

    def __getitem__(self, index: int) -> Event:
        block, offset = divmod(index, MIX_BLOCK)
        order = np.random.default_rng([self.seed, 1, block]).permutation(MIX_BLOCK)
        position = index % PHASE_SLOT - offset + int(order[offset])
        while len(self._base) <= position:
            self._base += [(source, self._next_archetype(source)) for source in self._block]
        source, key = self._base[position]
        return Event(index, key, source, self._truth[source])

    def audio(self, index: int) -> np.ndarray:
        """The event's capture channels plus its own dither (float64)."""
        return dithered(self.bank[self[index].key].channels, self.seed, index)

    def capture(self, index: int):
        from repro.acoustics.propagation import Capture

        base = self.bank[self[index].key]
        return Capture(channels=self.audio(index), sample_rate=base.sample_rate)


def dithered(channels: np.ndarray, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2, index])
    scale = DITHER_REL * float(np.sqrt(np.mean(np.square(channels))))
    return channels + scale * rng.standard_normal(channels.shape)


def poisson_schedule(seed: int, segment: int, rate: float, n: int) -> np.ndarray:
    """Due offsets (s) of ``n`` arrivals of a Poisson process at ``rate``/s."""
    gaps = np.random.default_rng([seed, 3, segment]).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps)
