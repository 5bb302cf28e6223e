"""The benchmark's inputs are pinned byte for byte.

``neatbench.inputs.trips`` routes every trip along a shortest path, so
a change to routing (kernel, tie-break, edge order) would silently
change what every benchmark workload measures.  These digests pin the
sid, x, y and t of every location of seed 7 of the workloads' recipes;
a routing change that moves a single sample fails here first.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from neatbench import workloads  # noqa: E402
from neatbench.inputs import network_for, trips  # noqa: E402

PINNED = {
    "DENSE": "c58f4768d27ab40cc1b3756df67de47a0411f780e4c703588ec7fa1de65c4032",
    "SPREAD": "45b7c4b6a14e80070f39a0ff0b2a4e68de150dc3213d8610576abcf328b80c6e",
    "STREAM": "b2effac9e9ca7ee809d584d5fdceab39f6ba056b1cd2e2148fcfc90e362bdf68",
}


def locations_digest(trajectories) -> str:
    """sha256 over ``(sid, x, y, t)`` of every location, in order."""
    digest = hashlib.sha256()
    pack = struct.Struct("<qddd").pack
    for trajectory in trajectories:
        for location in trajectory.locations:
            digest.update(pack(location.sid, location.x, location.y, location.t))
    return digest.hexdigest()


@pytest.mark.parametrize("recipe", sorted(PINNED))
def test_seed7_inputs_are_pinned(recipe):
    spec = getattr(workloads, recipe)
    assert locations_digest(trips(spec, network_for(spec), 7)) == PINNED[recipe]
