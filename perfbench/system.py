"""The system under test, in its own process, and the parent's handle on it.

``python -m perfbench.system --gate PATH`` loads the stored gate and
serves it through ``repro.serving.ServingGateway`` on a free localhost
port.  It prints one JSON ``ready`` line on stdout and then obeys
JSON-line commands on stdin, answering each with one JSON line:

- ``{"cmd": "trace", "on": bool}`` — start/stop recording spans (only
  with ``--trace PATH``, which installs the wrappers at start-up so
  toggling never patches code mid-run);
- ``{"cmd": "probe"}`` — time the calibration probe here, while idle;
- ``{"cmd": "stop"}`` — shut down, write the trace, report peak RSS.

The gateway's event loop never runs benchmark client code: load comes
from the parent over TCP.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

from .calibrate import probe_ms
from .gate import load_gate
from .tracing import Tracer, install_layers

PROBE_INTERVAL_S = 0.01


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _plan_counts() -> tuple[int, int]:
    from repro.runtime.plan import plan_stats

    stats = plan_stats()
    return stats.hits, stats.misses


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class _Recorder:
    """Tracer toggling plus the bookkeeping of the traced intervals."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.intervals: list[list[float]] = []  # [on, off] perf_counter pairs
        self.plan_hits = 0
        self.plan_misses = 0
        self.lags_ms: list[float] = []
        self._plan_on = (0, 0)

    def toggle(self, on: bool) -> dict:
        if self.tracer is None:
            return {"error": "started without --trace"}
        if on == self.tracer.enabled:
            return {"ok": True}
        self.tracer.enabled = on
        now = time.perf_counter()
        hits, misses = _plan_counts()
        if on:
            self.intervals.append([now, now])
            self._plan_on = (hits, misses)
        else:
            self.intervals[-1][1] = now
            self.plan_hits += hits - self._plan_on[0]
            self.plan_misses += misses - self._plan_on[1]
        return {"ok": True}

    def dump(self, path: str) -> None:
        if self.tracer is None:
            return
        self.tracer.dump(
            path,
            intervals=self.intervals,
            loop_lag_ms=self.lags_ms,
            plan_hits=self.plan_hits,
            plan_misses=self.plan_misses,
        )


async def _serve(pipeline, recorder: _Recorder, trace_path: str) -> None:
    from repro.serving.config import ServingConfig
    from repro.serving.gateway import ServingGateway
    from repro.serving.soak import StepClock

    loop = asyncio.get_running_loop()
    # Session time steps past the facing session window on every wake,
    # so each utterance passes the gate (the drive's and soak's clock).
    clock = StepClock(pipeline.config.session_seconds + 1.0)
    gateway = ServingGateway(pipeline, ServingConfig(check_liveness=True), clock=clock)
    await gateway.start()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line)
        loop.call_soon_threadsafe(commands.put_nowait, None)

    threading.Thread(target=read_stdin, daemon=True).start()

    async def probe() -> None:
        # Event-loop lag: how late a 10 ms timer fires while traced.
        while True:
            started = loop.time()
            await asyncio.sleep(PROBE_INTERVAL_S)
            if recorder.tracer is not None and recorder.tracer.enabled:
                recorder.lags_ms.append((loop.time() - started - PROBE_INTERVAL_S) * 1000.0)

    probe_task = asyncio.create_task(probe()) if recorder.tracer is not None else None
    _reply({"ready": True, "port": gateway.address[1]})
    try:
        while True:
            line = await commands.get()
            if line is None:
                break
            command = json.loads(line)
            if command["cmd"] == "stop":
                break
            if command["cmd"] == "trace":
                _reply(recorder.toggle(bool(command["on"])))
            elif command["cmd"] == "probe":
                _reply({"probe_ms": probe_ms()})
            else:
                _reply({"error": f"unknown command {command['cmd']!r}"})
    finally:
        if probe_task is not None:
            probe_task.cancel()
            await asyncio.gather(probe_task, return_exceptions=True)
        await gateway.stop()
    recorder.dump(trace_path)
    _reply({"stopped": True, "peak_rss_mb": _peak_rss_mb()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="HeadTalk system under test")
    parser.add_argument("--gate", required=True)
    parser.add_argument("--hardened", action="store_true")
    parser.add_argument("--trace", default=None, metavar="PATH", help="record spans to PATH")
    args = parser.parse_args(argv)

    pipeline = load_gate(Path(args.gate), hardened=args.hardened)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_layers(tracer)
    recorder = _Recorder(tracer)
    asyncio.run(_serve(pipeline, recorder, args.trace))
    return 0


class SystemProcess:
    """Parent-side handle: spawn, wait for ready, send commands, stop."""

    TIMEOUT_S = 60.0

    def __init__(self, root: Path, args: list[str], env: dict, log_path: Path):
        self._log = open(log_path, "a", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.system", *args],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.ready = self._read()
        self.setup_s = time.perf_counter() - started

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError("system process exited or stalled (see its log)")
        return json.loads(line)

    def command(self, **payload) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.command(cmd="stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=self.TIMEOUT_S)
        self._log.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


if __name__ == "__main__":
    sys.exit(main())
