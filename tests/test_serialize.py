"""Tests for clustering-result serialization."""

from __future__ import annotations

import marshal

import pytest

from repro.core.config import NEATConfig
from repro.core.flow_cluster import FlowCluster
from repro.core.model import Location
from repro.core.pipeline import NEAT
from repro.core.serialize import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.errors import ClusteringError

from conftest import trajectory_through


@pytest.fixture
def run(small_workload):
    network, dataset = small_workload
    result = NEAT(network, NEATConfig(eps=500.0)).run_opt(dataset)
    return network, result


class TestRoundTrip:
    def test_counts_preserved(self, run):
        network, result = run
        restored = result_from_dict(result_to_dict(result), network)
        assert restored.mode == result.mode
        assert restored.min_card_used == result.min_card_used
        assert len(restored.base_clusters) == len(result.base_clusters)
        assert len(restored.flows) == len(result.flows)
        assert len(restored.noise_flows) == len(result.noise_flows)
        assert len(restored.clusters) == len(result.clusters)

    def test_flow_structure_preserved(self, run):
        network, result = run
        restored = result_from_dict(result_to_dict(result), network)
        for original, copy in zip(result.flows, restored.flows):
            assert copy.sids == original.sids
            assert copy.endpoints == original.endpoints
            assert copy.participants == original.participants
            assert copy.route_length == pytest.approx(original.route_length)

    def test_cluster_membership_preserved(self, run):
        network, result = run
        restored = result_from_dict(result_to_dict(result), network)
        for original, copy in zip(result.clusters, restored.clusters):
            assert [f.sids for f in copy.flows] == [f.sids for f in original.flows]
            assert copy.participants == original.participants

    def test_fragment_contents_preserved(self, run):
        network, result = run
        restored = result_from_dict(result_to_dict(result), network)
        for original, copy in zip(result.base_clusters, restored.base_clusters):
            assert copy.sid == original.sid
            assert copy.density == original.density
            assert copy.participants == original.participants

    def test_file_roundtrip(self, run, tmp_path):
        network, result = run
        path = tmp_path / "clustering.json"
        save_result(result, path, network_name=network.name)
        restored = load_result(path, network)
        assert len(restored.flows) == len(result.flows)


def _reference_document(result, network_name: str = "") -> dict:
    """The clustering document built attribute by attribute."""
    flow_index = {id(flow): i for i, flow in enumerate(result.flows)}
    base_index = {id(c): i for i, c in enumerate(result.base_clusters)}

    def flow_entry(flow):
        return {
            "members": [base_index[id(member)] for member in flow.members],
            "member_sids": list(flow.sids),
        }

    def fragment_entry(fragment):
        rows = [[l.sid, l.x, l.y, l.t, l.node_id] for l in fragment.locations]
        return {"trid": fragment.trid, "locations": rows}

    return {
        "format": "repro-clustering",
        "version": 1,
        "mode": result.mode,
        "min_card_used": result.min_card_used,
        "network_name": network_name,
        "stale": False,
        "dropped_shards": list(result.dropped_shards),
        "base_clusters": [
            {
                "sid": cluster.sid,
                "fragments": [fragment_entry(f) for f in cluster.fragments],
            }
            for cluster in result.base_clusters
        ],
        "flows": [flow_entry(flow) for flow in result.flows],
        "noise_flows": [flow_entry(flow) for flow in result.noise_flows],
        "clusters": [
            {
                "cluster_id": cluster.cluster_id,
                "flow_indices": [flow_index[id(f)] for f in cluster.flows],
            }
            for cluster in result.clusters
        ],
    }


class TestDocumentBytes:
    """The document is byte-identical to an attribute-by-attribute build."""

    def test_location_field_order_is_the_row_order(self):
        assert Location._fields == ("sid", "x", "y", "t", "node_id")

    def test_rows_hold_junction_and_gps_samples(self, run):
        _, result = run
        node_ids = {
            type(row[4])
            for cluster in result_to_dict(result)["base_clusters"]
            for fragment in cluster["fragments"]
            for row in fragment["locations"]
        }
        assert node_ids == {int, type(None)}

    def test_marshal_identical_to_reference(self, run):
        network, result = run
        document = result_to_dict(result, network_name=network.name)
        reference = _reference_document(result, network.name)
        assert marshal.dumps(document, 2) == marshal.dumps(reference, 2)

    def test_cached_build_marshal_identical_to_reference(self, run):
        network, result = run
        cache: dict = {}
        # A cached build holds the same list rows as the plain one.
        reference = marshal.dumps(_reference_document(result, network.name), 2)
        for _ in range(2):  # cold, then every fragment a cache hit
            document = result_to_dict(
                result, network_name=network.name, fragment_cache=cache
            )
            assert marshal.dumps(document, 2) == reference


class TestValidation:
    def test_rejects_wrong_format(self, grid3x3):
        with pytest.raises(ClusteringError):
            result_from_dict({"format": "nope", "version": 1}, grid3x3)

    def test_rejects_wrong_version(self, run):
        network, result = run
        data = result_to_dict(result)
        data["version"] = 9
        with pytest.raises(ClusteringError):
            result_from_dict(data, network)


class TestFromMembers:
    def test_single_member(self, line3):
        from repro.core.base_cluster import form_base_clusters

        clusters = form_base_clusters(
            line3, [trajectory_through(line3, 0, [1])]
        )
        flow = FlowCluster.from_members(line3, clusters)
        assert flow.sids == (1,)

    def test_orientation_inferred(self, line3):
        from repro.core.base_cluster import form_base_clusters

        clusters = form_base_clusters(
            line3, [trajectory_through(line3, 0, [0, 1, 2])]
        )
        by_sid = {c.sid: c for c in clusters}
        # Reversed order: 2, 1, 0 — front must be node 3, end node 0.
        flow = FlowCluster.from_members(line3, [by_sid[2], by_sid[1], by_sid[0]])
        assert flow.sids == (2, 1, 0)
        assert flow.endpoints == (3, 0)

    def test_rejects_empty(self, line3):
        with pytest.raises(ClusteringError):
            FlowCluster.from_members(line3, [])

    def test_rejects_non_adjacent(self, line3):
        from repro.core.base_cluster import form_base_clusters

        clusters = form_base_clusters(
            line3, [trajectory_through(line3, 0, [0, 1, 2])]
        )
        by_sid = {c.sid: c for c in clusters}
        with pytest.raises(ClusteringError):
            FlowCluster.from_members(line3, [by_sid[0], by_sid[2]])


class TestDurableFormat:
    """save_result seals; load_result verifies and types every failure."""

    def test_saved_file_is_sealed_not_plain_json(self, run, tmp_path):
        network, result = run
        path = tmp_path / "clustering.json"
        save_result(result, path, network_name=network.name)
        from repro.persist.store import SNAPSHOT_MAGIC

        assert path.read_bytes().startswith(SNAPSHOT_MAGIC)

    def test_truncation_is_torn_write_with_path(self, run, tmp_path):
        from repro.errors import TornWrite

        network, result = run
        path = tmp_path / "clustering.json"
        save_result(result, path, network_name=network.name)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TornWrite) as excinfo:
            load_result(path, network)
        assert str(path) in str(excinfo.value)

    def test_bit_flip_is_corrupt_snapshot_with_path(self, run, tmp_path):
        from repro.errors import CorruptSnapshot

        network, result = run
        path = tmp_path / "clustering.json"
        save_result(result, path, network_name=network.name)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptSnapshot) as excinfo:
            load_result(path, network)
        assert str(path) in str(excinfo.value)

    def test_missing_file_is_typed_not_oserror(self, run, tmp_path):
        from repro.errors import CorruptSnapshot

        network, _ = run
        with pytest.raises(CorruptSnapshot):
            load_result(tmp_path / "absent.json", network)

    def test_legacy_plain_json_still_loads(self, run, tmp_path):
        import json

        network, result = run
        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(result_to_dict(result, network_name=network.name))
        )
        restored = load_result(path, network)
        assert len(restored.flows) == len(result.flows)

    def test_mangled_body_never_partial_result(self, run, tmp_path):
        # A decode failure *inside* a checksum-valid document must still
        # come back typed, never as a half-populated result object.
        import json

        from repro.errors import CorruptSnapshot

        network, result = run
        document = result_to_dict(result, network_name=network.name)
        del document["flows"]
        path = tmp_path / "mangled.json"
        from repro.persist.store import atomic_write, seal_snapshot

        atomic_write(
            path, seal_snapshot(json.dumps(document).encode("utf-8"))
        )
        with pytest.raises(CorruptSnapshot) as excinfo:
            load_result(path, network)
        assert str(path) in str(excinfo.value)
