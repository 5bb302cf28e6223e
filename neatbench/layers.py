"""Which program functions the traced run wraps, and the layer of each.

Spans are named after layers (``layer`` or ``layer:detail``), so a
layer's self time is the summed self time of its spans.  The benchmark's own root spans (``bench.*``) cover
each operation end to end; their self time is ``unattributed_s``.
"""

from __future__ import annotations

from typing import Any

from repro import parallel
from repro.core import (
    base_cluster,
    flow_formation,
    incremental,
    refinement,
    serialize,
    validate,
)
from repro.distributed import nodes, service, shardmap, transport
from repro.persist import checkpoint, distcache, store
from repro.roadnet import shortest_path

from .spans import SpanRecorder, self_time

#: (module, function, layer): wrapped wherever a repro module bound it.
FUNCTIONS = (
    (base_cluster, "form_base_clusters", "phase1"),
    (flow_formation, "form_flow_clusters", "phase2"),
    (refinement, "refine_flow_clusters", "phase3"),
    (transport, "_encode_message", "wire.encode"),
    (transport, "trajectories_to_packed", "wire.encode"),
    (transport, "clusters_from_packed", "wire.decode"),
    (nodes, "merge_base_clusters", "merge"),
    (validate, "validate_trajectories", "service.admit"),
    (validate, "validate_result", "service.document"),
    (serialize, "result_to_dict", "service.document"),
    (distcache, "save_distance_cache", "persist"),
)

#: (class, method, layer).
METHODS = (
    (shortest_path.ShortestPathEngine, "prefetch", "sp"),
    (shortest_path.ShortestPathEngine, "prefetch_grouped", "sp"),
    (shortest_path.ShortestPathEngine, "distance_many", "sp"),
    (shortest_path.ShortestPathEngine, "landmark_bounds", "sp"),
    # The pool's dispatch point; map_chunked/map_flat also run serially
    # inline, which is the calling phase's own work.
    (parallel.WorkerPool, "run_batch", "pool"),
    (transport.TransportClient, "start", "rpc.send"),
    (transport.TransportClient, "finish", "rpc.wait"),
    (shardmap.RegionShardMap, "shard", "shard"),
    (nodes.NeatCoordinator, "run", "coordinator"),
    (service.NeatService, "submit", "service"),
    (service.NeatService, "get_clustering", "service"),
    (service.NeatService, "_capture_snapshot", "service.document"),
    (service.NeatService, "_build_document", "service.document"),
    (incremental.IncrementalNEAT, "add_batch", "incremental"),
    (incremental.IncrementalNEAT, "checkpoint", "persist:checkpoint"),
    (incremental.IncrementalNEAT, "recover", "persist"),
    (checkpoint.CheckpointManager, "record_batch", "persist"),
    (store.SnapshotStore, "write", "persist"),
)

#: Every layer a span can belong to (``bench`` is the unattributed root).
LAYERS = tuple(dict.fromkeys(
    [name.split(":")[0] for *_, name in FUNCTIONS + METHODS] + ["bench"]
))


def install(recorder: SpanRecorder) -> None:
    for module, attr, name in FUNCTIONS:
        recorder.wrap_function(module, attr, name)
    for cls, attr, name in METHODS:
        recorder.wrap_method(cls, attr, name)


def count(recorder: SpanRecorder, name: str, run_id: int) -> int:
    """How many spans named ``name`` one repetition recorded."""
    return sum(1 for s in recorder.spans if s.name == name and s.run_id == run_id)


def layer_of(span_name: str) -> str:
    return "bench" if span_name.startswith("bench.") else span_name.split(":")[0]


def self_times(recorder: SpanRecorder, run_ids: list[int]) -> dict[str, float]:
    """Summed self seconds per layer over the spans of ``run_ids``."""
    wanted = set(run_ids)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in recorder.spans:
        if span.run_id not in wanted:
            continue
        children = [recorder.spans[i] for i in span.children]
        totals[layer_of(span.name)] += self_time(span, children)
    return totals


def chrome_document(recorder: SpanRecorder, run_ids: list[int]) -> dict[str, Any]:
    """The traced repetitions as a Chrome trace-event document."""
    from repro.obs.export import chrome_trace

    roots = recorder.roots(run_ids)
    if not roots:
        return chrome_trace([])
    origin = roots[0].start
    return chrome_trace(
        [recorder.to_tree(root, origin) for root in roots],
        process_name="neatbench",
    )
