"""Chaos hooks and pool recovery: crashes and transient faults.

The acceptance bar: a killed worker or an injected transient failure
during ``render_captures`` must never change a single output byte —
retry, pool rebuild and the serial fallback all converge to the serial
result.
"""

import numpy as np
import pytest

from repro.datasets.collection import render_tasks
from repro.faults import (
    TransientWorkerFault,
    chaos_unit,
    maybe_fail,
    set_fault_scenario,
    set_faults_enabled,
)
from repro.runtime import (
    RenderDispatchError,
    render_captures,
    retry_policy,
    task_key,
)
from tests.runtime.test_runtime import SPEC


@pytest.fixture(autouse=True)
def _clean_fault_state():
    yield
    set_faults_enabled(False)
    set_fault_scenario(None)


@pytest.fixture()
def tasks():
    return [task for _, task in render_tasks(SPEC)]


@pytest.fixture()
def serial(tasks):
    return render_captures(tasks, workers=1)


class TestChaosHooks:
    def test_chaos_unit_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_CHAOS_SEED", "42")
        assert chaos_unit("k1", "transient") == chaos_unit("k1", "transient")
        assert chaos_unit("k1", "transient") != chaos_unit("k1", "crash")
        assert 0.0 <= chaos_unit("k2", "crash") < 1.0

    def test_seed_shifts_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_CHAOS_SEED", "0")
        a = chaos_unit("key", "transient")
        monkeypatch.setenv("REPRO_FAULTS_CHAOS_SEED", "1")
        assert chaos_unit("key", "transient") != a

    def test_maybe_fail_first_attempt_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT_RATE", "1.0")
        set_faults_enabled(True)
        with pytest.raises(TransientWorkerFault):
            maybe_fail("some-task", attempt=0)
        maybe_fail("some-task", attempt=1)  # retry must succeed

    def test_maybe_fail_disarmed_without_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT_RATE", "1.0")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        set_faults_enabled(False)
        maybe_fail("some-task", attempt=0)

    def test_task_key_stable(self, tasks):
        assert task_key(tasks[0]) == task_key(tasks[0])
        assert task_key(tasks[0]) != task_key(tasks[1])


class TestPoolRecovery:
    def test_transient_faults_absorbed(self, monkeypatch, tasks, serial):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT_RATE", "1.0")
        pooled = render_captures(tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    def test_worker_crash_rebuild(self, monkeypatch, tasks, serial):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_CRASH_RATE", "1.0")
        pooled = render_captures(tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    def test_serial_fallback_past_rebuild_budget(self, monkeypatch, tasks, serial):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_CRASH_RATE", "1.0")
        monkeypatch.setenv("REPRO_RENDER_POOL_REBUILDS", "0")
        pooled = render_captures(tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    def test_exhausted_retries_raise_typed_error(self, monkeypatch, tasks):
        monkeypatch.setenv("REPRO_FAULTS", "1")
        monkeypatch.setenv("REPRO_FAULTS_TRANSIENT_RATE", "1.0")
        monkeypatch.setenv("REPRO_RENDER_RETRIES", "0")
        with pytest.raises(RenderDispatchError, match="failed after"):
            render_captures(tasks, workers=2, chunksize=1)


class TestRetryPolicyEnv:
    def test_defaults(self):
        policy = retry_policy()
        assert policy.retries == 2
        assert policy.timeout_s is None
        assert policy.pool_rebuilds == 1

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RENDER_RETRIES", "5")
        monkeypatch.setenv("REPRO_RENDER_TIMEOUT_S", "2.5")
        monkeypatch.setenv("REPRO_RENDER_POOL_REBUILDS", "3")
        policy = retry_policy()
        assert policy.retries == 5
        assert policy.timeout_s == 2.5
        assert policy.pool_rebuilds == 3

    def test_zero_timeout_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_RENDER_TIMEOUT_S", "0")
        assert retry_policy().timeout_s is None

    def test_malformed_warns_and_defaults(self, monkeypatch):
        from repro.obs import control

        monkeypatch.setenv("REPRO_RENDER_RETRIES", "many")
        monkeypatch.setattr(control, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="REPRO_RENDER_RETRIES"):
            policy = retry_policy()
        assert policy.retries == 2

    def test_backoff_capped(self):
        from repro.runtime import RetryPolicy

        policy = RetryPolicy(backoff_s=0.1, backoff_cap_s=0.3)
        assert policy.backoff_for(0) == pytest.approx(0.1)
        assert policy.backoff_for(10) == pytest.approx(0.3)
