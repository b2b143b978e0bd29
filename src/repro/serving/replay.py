"""Asyncio client helpers: stream a capture through a running gateway.

These are the building blocks the tests, the load driver, and any
offline replay use to drive the wire protocol from the client side:
open a connection, stream one utterance chunk by chunk, collect the
pushed ``early`` event (if any) and the final ``decision`` event.

``stream_capture`` is the one-shot convenience (connect, one utterance,
close); ``open_session`` / ``stream_utterance`` keep a connection open
so one simulated device can speak many utterances in sequence, which is
what the one load loop (:func:`repro.serving.soak.run_streams`) does for
both of its callers, the soak and the city drive.
"""

from __future__ import annotations

import asyncio
import base64
import json
import time

import numpy as np

from ..acoustics.propagation import Capture


async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def _recv(reader: asyncio.StreamReader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("gateway closed the connection")
    return json.loads(line)


STREAM_LIMIT = 1 << 24
"""Client-side per-line buffer; matches the gateway's limit."""


async def open_session(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, dict]:
    """Connect and read the hello (or busy error) line."""
    reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
    hello = await _recv(reader)
    return reader, writer, hello


async def close_session(writer: asyncio.StreamWriter) -> None:
    """Politely close a connection opened with :func:`open_session`."""
    try:
        await _send(writer, {"op": "close"})
    except ConnectionError:
        pass
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def encode_chunk(chunk: np.ndarray) -> str:
    """Base64 of C-order little-endian float64 samples."""
    x = np.ascontiguousarray(np.asarray(chunk, dtype="<f8"))
    return base64.b64encode(x.tobytes()).decode()


async def stream_utterance(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    capture: Capture,
    *,
    chunk_samples: int = 2048,
    truth: bool | None = None,
    slices: dict | None = None,
) -> dict:
    """One wake → audio… → end round trip on an open connection.

    Returns ``{"wake", "early", "decision", "events", "wall_ms"}`` —
    ``early`` is ``None`` unless the gateway pushed an early verdict
    before the decision.
    """
    started = time.perf_counter()
    await _send(writer, {"op": "wake"})
    wake = await _recv(reader)
    if "error" in wake:
        return {"wake": wake, "early": None, "decision": None, "events": [wake]}
    channels = capture.channels
    for start in range(0, channels.shape[1], chunk_samples):
        chunk = channels[:, start : start + chunk_samples]
        await _send(writer, {"op": "audio", "pcm": encode_chunk(chunk)})
    end: dict = {"op": "end"}
    if truth is not None:
        end["truth"] = bool(truth)
    if slices is not None:
        end["slices"] = slices
    await _send(writer, end)
    events: list[dict] = []
    early: dict | None = None
    decision: dict | None = None
    while decision is None:
        event = await _recv(reader)
        events.append(event)
        if event.get("event") == "early":
            early = event
        elif event.get("event") == "decision":
            decision = event
        elif "error" in event:
            break
    return {
        "wake": wake,
        "early": early,
        "decision": decision,
        "events": events,
        "wall_ms": (time.perf_counter() - started) * 1000.0,
    }


async def stream_capture(
    host: str,
    port: int,
    capture: Capture,
    *,
    chunk_samples: int = 2048,
    truth: bool | None = None,
    slices: dict | None = None,
) -> dict:
    """Connect, stream one utterance, close; see :func:`stream_utterance`."""
    reader, writer, hello = await open_session(host, port)
    if "error" in hello:
        writer.close()
        return {"hello": hello, "wake": None, "early": None, "decision": None, "events": []}
    try:
        out = await stream_utterance(
            reader,
            writer,
            capture,
            chunk_samples=chunk_samples,
            truth=truth,
            slices=slices,
        )
    finally:
        await close_session(writer)
    out["hello"] = hello
    return out
