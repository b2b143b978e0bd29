"""Streaming session gateway: many devices, one HeadTalk gate.

The serving layer turns the batch pipeline into a concurrent service:
each connected device streams PCM into a bounded per-session ring
buffer while a frame-incremental decider accumulates evidence and
rejects early when it can (see :mod:`repro.core.streaming`); the final
verdict is always byte-identical to batch evaluation of the same
stream.  :func:`repro.serving.soak.run_streams` is the one client
loop that puts load on a gateway; ``python -m repro.serving.soak``
drives it with round-robin device streams and writes the gateable
``BENCH_serving.json`` report, and :mod:`repro.traffic.drive` drives it
with a simulated city's event stream.
"""

from .config import ServingConfig
from .gateway import ServingGateway
from .replay import close_session, open_session, stream_capture, stream_utterance
from .ring import RingBuffer
from .session import DeviceSession, SessionError

__all__ = [
    "DeviceSession",
    "RingBuffer",
    "ServingConfig",
    "ServingGateway",
    "SessionError",
    "close_session",
    "open_session",
    "stream_capture",
    "stream_utterance",
]
