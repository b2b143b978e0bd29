"""Load generator: device connections streaming dithered events to the gateway.

Each connection is one simulated device with one utterance in flight:
``wake``, every audio chunk unpaced (the device had buffered the
utterance), then ``end``, without waiting for replies in between.  A
reader task per connection timestamps every event line the moment it
arrives, so an ``early`` rejection pushed mid-stream is timed when the
client sees it, not when the client gets round to reading.

Two phases share the connections:

- :func:`open_loop` — utterances due on a fixed Poisson schedule; each
  is timed from its due time, so a stall delays every later utterance's
  clock and the generator's own lateness is recorded;
- :func:`closed_loop` — every connection sends back to back until a
  fixed number of utterances is done (saturation throughput).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.serving.replay import close_session, encode_chunk, open_session


@dataclass
class Utterance:
    index: int
    due: float | None
    sent: float = 0.0
    first_reject: float | None = None
    done: float | None = None
    decision: dict | None = None
    errors: list = field(default_factory=list)


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.events: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer, hello = await open_session(host, port)
        if "error" in hello:
            writer.close()
            raise ConnectionError(f"gateway refused the connection: {hello}")
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                await self.events.put(None)
                return
            await self.events.put((time.perf_counter(), json.loads(line)))

    async def close(self) -> None:
        await close_session(self.writer)
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)

    async def utterance(self, record: Utterance, audio, chunk: int, truth, slices) -> Utterance:
        lines = [json.dumps({"op": "wake"}).encode() + b"\n"]
        for start in range(0, audio.shape[1], chunk):
            op = {"op": "audio", "pcm": encode_chunk(audio[:, start : start + chunk])}
            lines.append(json.dumps(op).encode() + b"\n")
        lines.append(json.dumps({"op": "end", "truth": truth, "slices": slices}).encode() + b"\n")
        record.sent = time.perf_counter()
        try:
            for line in lines:
                self.writer.write(line)
                await self.writer.drain()
        except (ConnectionError, OSError) as error:
            record.errors.append(f"transport: {error}")
            return record
        while record.done is None:
            item = await self.events.get()
            if item is None:
                record.errors.append("connection closed")
                return record
            at, event = item
            kind = event.get("event")
            if "error" in event:
                record.errors.append(event["error"])
                return record
            if kind == "early" and record.first_reject is None:
                record.first_reject = at
            elif kind == "decision":
                record.done = at
                record.decision = event
                if record.first_reject is None and not event.get("accepted"):
                    record.first_reject = at
        return record


async def open_loop(conns, stream, first_index: int, offsets, chunk: int) -> list[Utterance]:
    """Utterances ``first_index + k`` due at ``start + offsets[k]``."""
    start = time.perf_counter()
    records = [Utterance(first_index + k, start + float(o)) for k, o in enumerate(offsets)]
    cursor = iter(records)

    async def device(conn: Connection) -> None:
        for record in cursor:
            event = stream[record.index]
            audio = stream.audio(record.index)
            delay = record.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await conn.utterance(record, audio, chunk, event.truth, event.slices())

    await asyncio.gather(*(device(conn) for conn in conns))
    return records


async def closed_loop(conns, stream, first_index: int, count: int, limit_s: float, chunk: int):
    """``count`` back-to-back utterances (fewer if ``limit_s`` runs out first).

    Returns the records and the elapsed seconds until the last decision.
    """
    start = time.perf_counter()
    deadline = start + limit_s
    records: list[Utterance] = []
    next_index = [first_index]

    async def device(conn: Connection) -> None:
        while next_index[0] < first_index + count and time.perf_counter() < deadline:
            index = next_index[0]
            next_index[0] += 1
            event = stream[index]
            audio = stream.audio(index)
            record = Utterance(index, None)
            records.append(record)
            await conn.utterance(record, audio, chunk, event.truth, event.slices())

    await asyncio.gather(*(device(conn) for conn in conns))
    return records, time.perf_counter() - start
