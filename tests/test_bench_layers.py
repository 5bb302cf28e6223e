"""The benchmark's traced run wraps program functions by name.

``neatbench.layers`` lists every function and method whose time it
attributes to a layer.  If a refactor deletes or renames one of them,
the traced benchmark breaks; this test makes that a tier-1 failure
instead of a benchmark-time one.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from neatbench import layers  # noqa: E402
from neatbench.spans import SpanRecorder  # noqa: E402


def test_every_traced_name_installs_and_unwraps():
    originals = [
        cls.__dict__[attr] for cls, attr, _ in layers.METHODS
    ]
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        # One wrapper per method, at least one per module-level function.
        assert len(recorder._restore) >= len(layers.FUNCTIONS) + len(layers.METHODS)
    finally:
        recorder.unwrap_all()
    assert recorder._restore == []
    assert [cls.__dict__[attr] for cls, attr, _ in layers.METHODS] == originals
