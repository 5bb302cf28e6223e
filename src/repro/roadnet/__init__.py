"""Road-network substrate: graph model, routing, indexing, generators.

This package implements the reference road-network model of Section II-A of
the NEAT paper and everything the rest of the library needs from it:
shortest paths, spatial lookup, synthetic map generation and statistics.
"""

from .builder import line_network, network_from_edges, star_network
from .generators import (
    GridConfig,
    RadialConfig,
    REGION_PRESETS,
    atlanta_like,
    generate_grid_network,
    generate_radial_network,
    miami_like,
    san_jose_like,
)
from .csr import CSRGraph, build_csr
from .csv_io import load_network_csv, save_network_csv
from .geometry import Point
from .io import load_network, network_from_dict, network_to_dict, save_network
from .landmarks import LandmarkOracle
from .network import RoadNetwork
from .segment import DEFAULT_SPEED_LIMIT, DirectedEdge, Junction, RoadSegment
from .shortest_path import (
    INFINITY,
    Route,
    ShortestPathEngine,
    plan_source_groups,
    shortest_route,
)
from .spatial_index import SegmentGridIndex
from .stats import NetworkStats, format_table1, network_stats
from .subnetwork import clip_trajectories, crop_network

__all__ = [
    "CSRGraph",
    "DEFAULT_SPEED_LIMIT",
    "DirectedEdge",
    "GridConfig",
    "INFINITY",
    "Junction",
    "LandmarkOracle",
    "NetworkStats",
    "Point",
    "REGION_PRESETS",
    "RadialConfig",
    "RoadNetwork",
    "RoadSegment",
    "Route",
    "SegmentGridIndex",
    "ShortestPathEngine",
    "atlanta_like",
    "build_csr",
    "clip_trajectories",
    "crop_network",
    "format_table1",
    "generate_grid_network",
    "generate_radial_network",
    "line_network",
    "load_network",
    "load_network_csv",
    "miami_like",
    "network_from_dict",
    "network_from_edges",
    "network_stats",
    "network_to_dict",
    "plan_source_groups",
    "san_jose_like",
    "save_network",
    "save_network_csv",
    "shortest_route",
    "star_network",
]
