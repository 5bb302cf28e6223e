"""JSON (de)serialization of NEAT clustering results.

The paper's system sketch (Section II-C) has clients requesting
"trajectory clustering results for a particular road network" from a NEAT
server — which needs a wire format.  This module round-trips a
:class:`~repro.core.result.NEATResult` through a JSON-compatible dict:
base clusters with their fragments, flows as ordered member references,
final clusters as flow references.

Schema (version 1)::

    {
      "format": "repro-clustering", "version": 1,
      "mode": "opt", "min_card_used": 5, "network_name": "...",
      "stale": false,
      "dropped_shards": [],
      "base_clusters": [
        {"sid": 3, "fragments": [
            {"trid": 0, "locations": [[sid, x, y, t, node_id|null], ...]},
        ]},
      ],
      "flows": [{"member_sids": [3, 5, 8]}],
      "noise_flows": [{"member_sids": [9]}],
      "clusters": [{"cluster_id": 0, "flow_indices": [0, 2]}]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import ClusteringError, CorruptSnapshot, RoadNetworkError
from ..gcpause import gc_paused
from ..roadnet.network import RoadNetwork
from .base_cluster import BaseCluster
from .flow_cluster import FlowCluster
from .model import Location, TFragment
from .refinement import TrajectoryCluster
from .result import NEATResult

FORMAT_TAG = "repro-clustering"
FORMAT_VERSION = 1


def _fragment_to_list(
    fragment: TFragment,
    cache: dict[int, tuple[Any, Any]] | None = None,
) -> dict[str, Any]:
    if cache is None:
        # Location's field order is the schema's row order, so the rows
        # are built at C speed, one exact list per sample.
        return {
            "trid": fragment.trid,
            "locations": list(map(list, fragment.locations)),
        }
    hit = cache.get(id(fragment))
    if hit is not None:
        return hit[1]
    # Cached documents use tuples for the location rows: json.dumps
    # writes tuples and lists identically, but CPython's GC *untracks*
    # tuples (and dicts) of atomic values — so a long-lived cache of
    # thousands of fragments adds almost nothing to gen-2 collections,
    # where an equivalent list-of-lists cache would be rescanned forever.
    document = {
        "trid": fragment.trid,
        "locations": tuple(map(tuple, fragment.locations)),
    }
    # The fragment itself is kept in the entry so its id() can never
    # be recycled onto a different object while the cache is alive.
    cache[id(fragment)] = (fragment, document)
    return document


def _fragments_to_lists(
    fragments,
    cache: dict[int, tuple[Any, Any]] | None,
) -> list[dict[str, Any]]:
    if cache is not None:
        try:
            # Entries pin their fragment, so a live id() can only be a
            # genuine hit; the slow path below fills any misses.
            return [cache[id(f)][1] for f in fragments]
        except KeyError:
            pass
    return [_fragment_to_list(f, cache) for f in fragments]


def _cluster_to_dict(
    cluster: BaseCluster,
    cache: dict[int, tuple[Any, Any, Any]] | None,
) -> dict[str, Any]:
    if cache is None:
        return {
            "sid": cluster.sid,
            "fragments": _fragments_to_lists(cluster.fragments, None),
        }
    # Whole-cluster memo: a base cluster only ever *grows* (fragments are
    # appended, never replaced), so an entry pinned on the cluster with a
    # matching fragment count is still the current serialization.
    hit = cache.get(id(cluster))
    if hit is not None and hit[0] is cluster and hit[1] == len(cluster.fragments):
        return hit[2]
    entry = {
        "sid": cluster.sid,
        "fragments": _fragments_to_lists(cluster.fragments, cache),
    }
    cache[id(cluster)] = (cluster, len(cluster.fragments), entry)
    return entry


def _fragment_from_dict(data: dict[str, Any]) -> TFragment:
    locations = tuple(
        Location(int(sid), float(x), float(y), float(t),
                 None if node_id is None else int(node_id))
        for sid, x, y, t, node_id in data["locations"]
    )
    return TFragment(int(data["trid"]), locations[0].sid, locations)


@gc_paused
def result_to_dict(
    result: NEATResult,
    network_name: str = "",
    stale: bool = False,
    fragment_cache: dict[int, tuple[Any, Any]] | None = None,
) -> dict[str, Any]:
    """Serialize a NEAT result to a JSON-compatible dictionary.

    Args:
        result: The result to serialize.
        network_name: Name recorded in the document.
        stale: Degraded-mode marker — ``True`` when a NEAT server is
            serving a previously validated snapshot because the fresh
            refresh failed (see ``docs/robustness.md``).
        fragment_cache: Optional memo reused across calls — t-fragments
            are immutable, so repeated snapshots of a growing state
            (per-batch checkpoints) skip re-serializing old fragments.

    Runs with the cyclic GC paused (:mod:`repro.gcpause`): the document
    holds one row per location sample and references downwards only.
    """
    flow_index = {id(flow): i for i, flow in enumerate(result.flows)}
    base_index = {id(c): i for i, c in enumerate(result.base_clusters)}
    return {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "mode": result.mode,
        "min_card_used": result.min_card_used,
        "network_name": network_name,
        "stale": bool(stale),
        "dropped_shards": list(result.dropped_shards),
        "base_clusters": [
            _cluster_to_dict(cluster, fragment_cache)
            for cluster in result.base_clusters
        ],
        # Flows reference their member base clusters by *index* into the
        # base_clusters list (the redundant member_sids are kept for human
        # readability): incremental/service snapshots can hold several
        # base clusters for the same segment, so sids alone are ambiguous.
        "flows": [
            _flow_to_dict(flow, base_index) for flow in result.flows
        ],
        "noise_flows": [
            _flow_to_dict(flow, base_index) for flow in result.noise_flows
        ],
        "clusters": [
            {
                "cluster_id": cluster.cluster_id,
                "flow_indices": [flow_index[id(flow)] for flow in cluster.flows],
            }
            for cluster in result.clusters
        ],
    }


def _flow_to_dict(flow: FlowCluster, base_index: dict[int, int]) -> dict:
    return {
        "members": [base_index[id(member)] for member in flow.members],
        "member_sids": list(flow.sids),
    }


@gc_paused
def result_from_dict(data: dict[str, Any], network: RoadNetwork) -> NEATResult:
    """Rebuild a NEAT result against its road network.

    The network must contain every referenced segment (i.e. be the same
    network, or a superset, of the one the result was computed on).
    """
    if data.get("format") != FORMAT_TAG:
        raise ClusteringError(f"not a clustering document: {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ClusteringError(f"unsupported version: {data.get('version')!r}")

    base_by_sid: dict[int, BaseCluster] = {}
    base_clusters: list[BaseCluster] = []
    for entry in data["base_clusters"]:
        cluster = BaseCluster(int(entry["sid"]))
        for fragment in entry["fragments"]:
            cluster.add(_fragment_from_dict(fragment))
        base_by_sid[cluster.sid] = cluster
        base_clusters.append(cluster)

    def rebuild_flow(entry: dict[str, Any]) -> FlowCluster:
        if "members" in entry:
            members = [base_clusters[int(i)] for i in entry["members"]]
        else:  # legacy sid-keyed documents
            members = [base_by_sid[int(sid)] for sid in entry["member_sids"]]
        return FlowCluster.from_members(network, members)

    flows = [rebuild_flow(entry) for entry in data["flows"]]
    noise_flows = [rebuild_flow(entry) for entry in data["noise_flows"]]
    clusters = [
        TrajectoryCluster(
            int(entry["cluster_id"]),
            [flows[i] for i in entry["flow_indices"]],
        )
        for entry in data["clusters"]
    ]
    result = NEATResult(mode=data.get("mode", "opt"))
    result.base_clusters = base_clusters
    result.flows = flows
    result.noise_flows = noise_flows
    result.clusters = clusters
    result.min_card_used = int(data.get("min_card_used", 0))
    result.dropped_shards = [int(s) for s in data.get("dropped_shards", [])]
    return result


def save_result(
    result: NEATResult, path: str | Path, network_name: str = ""
) -> None:
    """Write a clustering result to a checksum-sealed file, atomically.

    The JSON document is wrapped in the SHA-256 sealed envelope of
    :mod:`repro.persist.store` and written via temp file + fsync +
    rename, so a crash mid-save leaves either the previous file or the
    complete new one — never a torn result.
    """
    # Imported here, not at module level: repro.persist depends on core
    # model types, so a top-level import would be circular.
    from ..persist.store import atomic_write, seal_snapshot

    payload = json.dumps(result_to_dict(result, network_name)).encode("utf-8")
    atomic_write(Path(path), seal_snapshot(payload))


def load_result(path: str | Path, network: RoadNetwork) -> NEATResult:
    """Read a clustering result from a file, verifying integrity.

    Sealed envelopes (the :func:`save_result` format) are SHA-256
    verified; legacy plain-JSON files are still accepted.  Every decode
    failure surfaces as a typed error naming the offending file — a
    partially-built result is never returned.

    Raises:
        TornWrite: The file ends mid-envelope (interrupted write).
        CorruptSnapshot: Checksum mismatch, non-JSON payload, or a
            payload that does not decode to a clustering document.
        RoadNetworkError: The document is intact but references segments
            ``network`` does not have (wrong network, not corruption).
    """
    from ..persist.store import SNAPSHOT_MAGIC, unseal_snapshot

    target = Path(path)
    try:
        raw = target.read_bytes()
    except OSError as error:
        raise CorruptSnapshot(target, f"unreadable: {error}") from error

    if raw[: len(SNAPSHOT_MAGIC)] == SNAPSHOT_MAGIC or raw.lstrip()[:1] != b"{":
        payload = unseal_snapshot(raw, source=target)
    else:  # legacy plain-JSON result
        payload = raw

    try:
        document = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptSnapshot(target, f"payload is not JSON: {error}") from error
    try:
        return result_from_dict(document, network)
    except RoadNetworkError:
        raise
    except (ClusteringError, KeyError, ValueError, TypeError, IndexError) as error:
        raise CorruptSnapshot(
            target, f"undecodable clustering document: {error!r}"
        ) from error
