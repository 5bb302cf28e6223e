"""repro — reproduction of "NEAT: Road Network Aware Trajectory Clustering".

A full implementation of the NEAT three-phase clustering framework
(Han, Liu, Omiecinski; ICDCS 2012) plus every substrate its evaluation
needs: a road-network graph model with routing and spatial indexing,
synthetic map generators calibrated to the paper's Table I, a
GTMobiSIM-style mobility-trace simulator, a SLAMM-style map matcher, the
TraClus baseline, and experiment drivers regenerating every table and
figure of the paper.

Quickstart::

    from repro.roadnet import atlanta_like
    from repro.mobisim import SimulationConfig, simulate_dataset
    from repro.core import NEAT, NEATConfig

    network = atlanta_like(scale=0.1)
    dataset = simulate_dataset(network, SimulationConfig(object_count=500))
    result = NEAT(network, NEATConfig(eps=2000.0)).run_opt(dataset)
    print(result.summary())
"""

from .core import (
    NEAT,
    NEATConfig,
    NEATResult,
    Location,
    TFragment,
    Trajectory,
    TrajectoryCluster,
    TrajectoryDataset,
)
from .errors import ReproError
from .obs import Telemetry, configure_logging, get_logger
from .parallel import effective_workers, resolve_workers
from .roadnet import Point, RoadNetwork

__version__ = "1.0.0"

__all__ = [
    "Location",
    "NEAT",
    "NEATConfig",
    "NEATResult",
    "Point",
    "ReproError",
    "RoadNetwork",
    "TFragment",
    "Telemetry",
    "Trajectory",
    "TrajectoryCluster",
    "TrajectoryDataset",
    "__version__",
    "configure_logging",
    "effective_workers",
    "get_logger",
    "resolve_workers",
]
