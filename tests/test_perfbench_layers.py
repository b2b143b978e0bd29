"""The benchmark's layer tracer still fits this source tree.

``perfbench/tracing.py`` wraps named functions and methods of the
library (``extract_batch``, ``evaluate_batch``, ``streaming.preprocess``,
...) to attribute time per layer.  Renaming or deleting one of them
breaks a traced benchmark run; this test makes it break tier-1 instead.
"""

from perfbench.tracing import Tracer, install_layers


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_layers_wraps_and_unwrap_all_restores():
    tracer = Tracer()
    try:
        install_layers(tracer)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original in installed:
            assert _current(owner, attr) is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.unwrap_all()
    for owner, attr, original in installed:
        assert _current(owner, attr) is original, f"{owner}.{attr} not restored"
