"""One serving document per state version.

``NeatService`` builds and validates the clustering document once per
``IncrementalNEAT.batch_count``: the post-ingest capture builds it, and
every query of the same version serves it through the ``refresh``
injection point without rebuilding.  A restarted service builds it once,
from the recovered clusterer; nothing but the clusterer's own state is
written to disk.
"""

from __future__ import annotations

import json

import pytest

from conftest import trajectory_through
from repro.core import NEATConfig
from repro.core.serialize import result_to_dict
from repro.core.validate import validate_result
from repro.distributed.service import NeatService

CONFIG = NEATConfig(min_card=0)


def one_trip_batches(network, count):
    return [
        [trajectory_through(network, 0, [index % 2, index % 2 + 1], t0=float(index))]
        for index in range(count)
    ]


@pytest.fixture
def build_calls(monkeypatch):
    """Counts ``NeatService._build_document`` calls across instances."""
    calls = []
    original = NeatService._build_document

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(NeatService, "_build_document", counted)
    return calls


def fresh_document(service: NeatService) -> dict:
    result = service._incremental.snapshot_result()
    validate_result(
        result, service.network, allow_shared_segments=True
    ).raise_if_invalid()
    return result_to_dict(result, network_name=service.network.name)


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


class TestOneDocumentPerVersion:
    def test_stream_builds_each_version_once(self, grid3x3, build_calls):
        batches = one_trip_batches(grid3x3, 6)
        service = NeatService(grid3x3, CONFIG)
        for batch in batches:
            service.submit(batch)
            served = service.get_clustering()
            assert served["stale"] is False
            assert canonical(served) == canonical(fresh_document(service))
        assert len(build_calls) == len(batches)

    def test_repeated_queries_reuse_the_document(self, grid3x3, build_calls):
        service = NeatService(grid3x3, CONFIG)
        service.submit(one_trip_batches(grid3x3, 1)[0])
        first = service.get_clustering()
        second = service.get_clustering()
        assert len(build_calls) == 1
        assert first == second
        assert first is not second  # top-level copies

    def test_restart_builds_once_and_writes_no_service_store(
        self, grid3x3, tmp_path, build_calls
    ):
        batches = one_trip_batches(grid3x3, 4)
        service = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        for batch in batches:
            service.submit(batch)
            service.get_clustering()
        before = service.get_clustering()
        assert len(build_calls) == len(batches)
        assert not (tmp_path / "service").exists()

        build_calls.clear()
        restarted = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        assert len(build_calls) == 1
        after = restarted.get_clustering()
        assert len(build_calls) == 1
        assert canonical(after) == canonical(before)
        assert canonical(after) == canonical(fresh_document(restarted))
        assert not (tmp_path / "service").exists()

    def test_empty_state_dir_builds_nothing_at_construction(
        self, grid3x3, tmp_path, build_calls
    ):
        NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        assert build_calls == []

    def test_leftover_service_directory_is_ignored(self, grid3x3, tmp_path):
        service = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        service.submit(one_trip_batches(grid3x3, 1)[0])
        reference = service.get_clustering()
        leftover = tmp_path / "service"
        leftover.mkdir()
        (leftover / "gen-00000001-w00000001.snap").write_bytes(b"not a snapshot")
        restarted = NeatService(grid3x3, CONFIG, state_dir=tmp_path)
        assert canonical(restarted.get_clustering()) == canonical(reference)
