"""Equivalence tests for the runtime layer (cache + batch renderer).

The runtime layer's single invariant: serial, parallel, cold-cache and
warm-cache paths all produce byte-identical captures — and therefore
identical pipeline ``Decision``s.
"""

import numpy as np
import pytest

from repro.datasets import CollectionSpec
from repro.datasets.collection import collect, render_tasks
from repro.runtime import (
    RenderTask,
    cache_stats,
    clear_caches,
    execute_render_task,
    render_captures,
    set_cache_enabled,
    worker_pool,
)

SPEC = CollectionSpec(
    room="lab",
    device="D2",
    wake_word="computer",
    locations=((1.0, 0.0),),
    angles=(0.0, 180.0),
    repetitions=1,
)

NOISE_SPEC = CollectionSpec(
    room="lab",
    device="D2",
    wake_word="computer",
    locations=((1.0, 0.0),),
    angles=(0.0,),
    repetitions=1,
    noise=(("white", 45.0),),
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _tasks(spec=SPEC):
    return [task for _, task in render_tasks(spec)]


class TestRenderTask:
    def test_reexecution_is_identical(self):
        """Tasks store generator *state*, so they can be re-run."""
        task = _tasks()[0]
        first = execute_render_task(task)
        second = execute_render_task(task)
        assert np.array_equal(first.channels, second.channels)

    def test_matches_inline_collect(self):
        inline = [capture for _, capture in collect(SPEC)]
        from_tasks = [execute_render_task(t) for t in _tasks()]
        for a, b in zip(inline, from_tasks):
            assert np.array_equal(a.channels, b.channels)


class TestSerialParallelEquivalence:
    def test_parallel_bytes_identical(self):
        tasks = _tasks()
        serial = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)
        assert len(serial) == len(parallel) == len(tasks)
        for a, b in zip(serial, parallel):
            assert a.sample_rate == b.sample_rate
            assert np.array_equal(a.channels, b.channels)

    def test_parallel_with_interference_identical(self):
        tasks = _tasks(NOISE_SPEC)
        serial = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.channels, b.channels)

    def test_collect_workers_identical(self):
        serial = [c.channels for _, c in collect(SPEC, workers=1)]
        parallel = [c.channels for _, c in collect(SPEC, workers=2)]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_worker_pool_sets_default(self):
        from repro.runtime import default_workers

        assert default_workers() == 1
        with worker_pool(3):
            assert default_workers() == 3
        assert default_workers() == 1

    def test_malformed_env_warns_once_and_falls_back(self, monkeypatch):
        import warnings

        from repro.obs import control
        from repro.runtime import batch

        monkeypatch.setenv("REPRO_RENDER_WORKERS", "two")
        monkeypatch.setattr(control, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="REPRO_RENDER_WORKERS='two'"):
            assert batch.default_workers() == 1
        # The warning is one-time: later calls stay silent (and serial).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batch.default_workers() == 1

    def test_empty_and_invalid(self):
        assert render_captures([]) == []
        with pytest.raises(ValueError, match="workers"):
            render_captures(_tasks(), workers=0)


class TestPersistentPool:
    def test_pool_scoped_and_workers_defaulted(self):
        from repro.runtime import active_pool, default_workers, persistent_pool

        assert active_pool() is None
        with persistent_pool(2):
            assert active_pool() is not None
            assert default_workers() == 2
        assert active_pool() is None
        assert default_workers() == 1

    def test_renders_identical_through_reused_pool(self):
        from repro.runtime import persistent_pool

        tasks = _tasks()
        serial = render_captures(tasks, workers=1)
        with persistent_pool(2):
            first = render_captures(tasks, workers=2)
            second = render_captures(tasks)  # workers defaulted by the pool scope
        for a, b, c in zip(serial, first, second):
            assert np.array_equal(a.channels, b.channels)
            assert np.array_equal(a.channels, c.channels)

    def test_requires_at_least_two_workers(self):
        from repro.runtime import persistent_pool

        with pytest.raises(ValueError, match="workers"):
            with persistent_pool(1):
                pass

    def test_broken_pool_never_handed_out(self):
        """A pool that breaks inside the scope is cleared, not re-served."""
        import os

        from concurrent.futures.process import BrokenProcessPool

        from repro.runtime import active_pool, persistent_pool

        tasks = _tasks()
        serial = render_captures(tasks, workers=1)
        with persistent_pool(2) as pool:
            assert active_pool() is pool
            with pytest.raises(BrokenProcessPool):
                pool.submit(os._exit, 1).result()
            assert active_pool() is None
            # Renders keep working: a fresh pool is built transparently.
            pooled = render_captures(tasks)
            for s, p in zip(serial, pooled):
                assert np.array_equal(s.channels, p.channels)
        assert active_pool() is None


class TestColdWarmEquivalence:
    def test_warm_cache_bytes_identical(self):
        tasks = _tasks()
        cold = render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["dry"].misses == len(tasks)
        warm = render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["dry"].hits == len(tasks)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.channels, b.channels)

    def test_rir_cache_shared_across_emissions(self, lab_scene, speaker):
        """Same scene, different utterances: RIR hits even as dry misses."""
        from tests.conftest import COLLECT_RIR

        tasks = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            emission = speaker.emit("computer", 48_000, rng)
            tasks.append(RenderTask.from_rng(lab_scene, emission, rng, rir_config=COLLECT_RIR))
        render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["rir"].hits > 0
        assert stats["dry"].hits == 0 and stats["dry"].misses == 2

    def test_disabled_cache_identical(self):
        tasks = _tasks()
        cached = render_captures(tasks, workers=1)
        clear_caches()
        set_cache_enabled(False)
        try:
            uncached = render_captures(tasks, workers=1)
            stats = cache_stats()
            assert stats["rir"].hits == stats["rir"].misses == 0
        finally:
            set_cache_enabled(True)
        for a, b in zip(cached, uncached):
            assert np.array_equal(a.channels, b.channels)


class TestDecisionEquivalence:
    """Identical Decisions across render paths (satellite 4)."""

    @pytest.fixture()
    def pipeline(self, d2_subset, trained_detector):
        from repro.core import HeadTalkPipeline
        from repro.core.liveness import LivenessDetector

        liveness = LivenessDetector(epochs=1, random_state=0)
        rng = np.random.default_rng(0)
        waveforms = [rng.standard_normal(24_000) for _ in range(4)]
        labels = np.array([0, 1, 0, 1])
        liveness.fit(waveforms, labels, 48_000)
        return HeadTalkPipeline(array=d2_subset, liveness=liveness, orientation=trained_detector)

    def test_all_paths_same_decisions(self, pipeline):
        tasks = _tasks()
        serial_cold = render_captures(tasks, workers=1)
        serial_warm = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)

        reference = [pipeline.evaluate(c) for c in serial_cold]
        for captures in (serial_warm, parallel):
            for ref, capture in zip(reference, captures):
                assert pipeline.evaluate(capture).fingerprint() == ref.fingerprint()

        batch = pipeline.evaluate_batch(serial_cold)
        for ref, got in zip(reference, batch):
            assert got.fingerprint() == ref.fingerprint()


class TestShmDispatch:
    """Shared-memory waveform transport must not change a single byte."""

    @pytest.fixture(autouse=True)
    def _restore_shm(self):
        from repro.runtime import set_shm_enabled, shm_enabled

        previous = shm_enabled()
        yield
        set_shm_enabled(previous)

    def test_shm_and_pickled_pool_identical(self):
        from repro.runtime import set_shm_enabled

        tasks = _tasks(NOISE_SPEC)
        serial = render_captures(tasks, workers=1)
        set_shm_enabled(True)
        with_shm = render_captures(tasks, workers=2)
        set_shm_enabled(False)
        without_shm = render_captures(tasks, workers=2)
        for a, b, c in zip(serial, with_shm, without_shm):
            assert a.channels.tobytes() == b.channels.tobytes()
            assert a.channels.tobytes() == c.channels.tobytes()
            assert a.channels.dtype == b.channels.dtype == c.channels.dtype

    def test_no_segments_leak(self):
        import glob

        before = set(glob.glob("/dev/shm/psm_*"))
        render_captures(_tasks(), workers=2)
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before


class TestCacheEnvParsing:
    def test_malformed_cache_size_warns_once_and_falls_back(self, monkeypatch):
        from repro.obs import control
        from repro.runtime import cache as cache_mod

        monkeypatch.setattr(control, "_WARNED", set())
        monkeypatch.setenv("REPRO_RIR_CACHE_ENTRIES", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_RIR_CACHE_ENTRIES"):
            assert cache_mod._env_entries("REPRO_RIR_CACHE_ENTRIES", 64) == 64
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert cache_mod._env_entries("REPRO_RIR_CACHE_ENTRIES", 64) == 64

    def test_unset_uses_default_and_negative_clamps(self, monkeypatch):
        from repro.runtime import cache as cache_mod

        monkeypatch.delenv("REPRO_DRY_CACHE_ENTRIES", raising=False)
        assert cache_mod._env_entries("REPRO_DRY_CACHE_ENTRIES", 128) == 128
        monkeypatch.setenv("REPRO_DRY_CACHE_ENTRIES", "-5")
        assert cache_mod._env_entries("REPRO_DRY_CACHE_ENTRIES", 128) == 0
        monkeypatch.setenv("REPRO_DRY_CACHE_ENTRIES", "16")
        assert cache_mod._env_entries("REPRO_DRY_CACHE_ENTRIES", 128) == 16
