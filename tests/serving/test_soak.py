"""The shared gateway load loop driven the soak's way: N deadline streams."""

import asyncio

from repro.serving import ServingConfig
from repro.serving.soak import build_captures, run_streams, soak_streams, stream_problems


def test_deadline_streams_play_every_capture_on_one_connection_each(trained_pipeline):
    captures = dict(enumerate(build_captures(seed=1)))
    clients = len(captures)
    stats = asyncio.run(
        run_streams(
            trained_pipeline,
            captures,
            soak_streams(len(captures), clients),
            config=ServingConfig(check_liveness=False, max_sessions=clients + 2),
            seconds=1.0,
        )
    )

    assert stream_problems(stats) == []
    assert stats["clients"] == clients
    # Each client is one device: it never reconnects or opens a second
    # connection, however many utterances it sends.
    assert stats["connections"] == clients
    assert stats["decisions"] == stats["events"] >= clients
    # Client k starts at capture k, so every capture is played at least once.
    played = {label for label, tally in stats["per_source"].items() if tally["n"]}
    assert played == {f"capture-{k}" for k in captures}
    # Soak utterances carry no truth, so no confusion is tallied.
    for tally in stats["per_source"].values():
        assert tally["tp"] == tally["fp"] == tally["tn"] == tally["fn"] == 0
