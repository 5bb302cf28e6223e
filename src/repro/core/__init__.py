"""NEAT core: the paper's three-phase trajectory clustering framework.

Public surface: the data model (:class:`Location`, :class:`Trajectory`,
:class:`TFragment`), the per-phase building blocks (base clusters, flow
clusters, refinement) and the :class:`NEAT` pipeline that ties them into
base-/flow-/opt-NEAT.
"""

from .base_cluster import (
    BaseCluster,
    densecore,
    form_base_clusters,
    group_fragments,
    netflow,
)
from .config import (
    NEATConfig,
    PRESET_BALANCED,
    PRESET_DENSEST,
    PRESET_FASTEST,
    PRESET_MAX_FLOW,
    PRESET_TRAFFIC_MONITORING,
)
from .flow_cluster import FlowCluster
from .flow_formation import FlowFormationResult, form_flow_clusters
from .incremental import BatchResult, IncrementalNEAT
from .fragmentation import fragment_all, fragment_trajectory
from .model import Location, TFragment, Trajectory, TrajectoryDataset
from .neighborhood import BaseClusterPool, maxflow_neighbor
from .pipeline import MODES, NEAT
from .preprocess import (
    deduplicate,
    preprocess_stream,
    remove_stay_points,
    simplify,
    split_by_time_gap,
)
from .refinement import (
    RefinementStats,
    TrajectoryCluster,
    euclidean_lower_bound,
    flow_distance,
    refine_flow_clusters,
)
from .result import NEATResult, PhaseTimings
from .serialize import load_result, result_from_dict, result_to_dict, save_result
from .timeslice import (
    TimeSlice,
    flow_stability,
    persistent_segments,
    time_sliced_clustering,
)
from .validate import ValidationReport, validate_result, validate_trajectories

__all__ = [
    "BaseCluster",
    "BaseClusterPool",
    "BatchResult",
    "FlowCluster",
    "FlowFormationResult",
    "IncrementalNEAT",
    "Location",
    "MODES",
    "NEAT",
    "NEATConfig",
    "NEATResult",
    "PRESET_BALANCED",
    "PRESET_DENSEST",
    "PRESET_FASTEST",
    "PRESET_MAX_FLOW",
    "PRESET_TRAFFIC_MONITORING",
    "PhaseTimings",
    "RefinementStats",
    "TFragment",
    "TimeSlice",
    "Trajectory",
    "TrajectoryCluster",
    "TrajectoryDataset",
    "ValidationReport",
    "deduplicate",
    "densecore",
    "euclidean_lower_bound",
    "flow_distance",
    "flow_stability",
    "form_base_clusters",
    "form_flow_clusters",
    "fragment_all",
    "fragment_trajectory",
    "group_fragments",
    "load_result",
    "maxflow_neighbor",
    "netflow",
    "persistent_segments",
    "preprocess_stream",
    "refine_flow_clusters",
    "remove_stay_points",
    "result_from_dict",
    "result_to_dict",
    "save_result",
    "simplify",
    "split_by_time_gap",
    "time_sliced_clustering",
    "validate_result",
    "validate_trajectories",
]
