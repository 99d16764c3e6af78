"""Network substrate: graphs, shortest paths, and incremental searches.

This subpackage implements the road-network layer the paper's algorithms
run on: a compact weighted-graph representation (:class:`~repro.network.graph.Network`),
Dijkstra variants (:mod:`repro.network.dijkstra`), preallocated batched
kernels (:mod:`repro.network.kernels`), process-parallel fan-out
(:mod:`repro.network.parallel`), two precomputed distance oracles -- ALT
landmarks (:mod:`repro.network.oracle` / :mod:`repro.network.landmarks`)
and contraction hierarchies (:mod:`repro.network.ch`) -- resumable
nearest-facility streams (:mod:`repro.network.incremental`), and
connected-component bookkeeping (:mod:`repro.network.components`).
"""

from repro.network.astar import astar_distance
from repro.network.components import (
    ComponentStructure,
    component_labels,
    connected_components,
)
from repro.network.dijkstra import (
    DijkstraResult,
    distance_matrix,
    multi_source_lengths,
    shortest_path,
    shortest_path_lengths,
)
from repro.network.graph import GraphStats, Network
from repro.network.incremental import NearestFacilityStream, StreamCursor, StreamPool
from repro.network.kernels import DijkstraWorkspace, many_source_lengths
from repro.network.landmarks import select_landmarks
from repro.network.oracle import AltOracle, OracleFacilityStream
from repro.network.parallel import ParallelDistanceEngine, resolve_workers
from repro.network.subgraph import (
    SubgraphMapping,
    giant_component_instance,
    induced_subgraph,
    largest_component,
    restrict_instance,
)
from repro.network.voronoi import VoronoiPartition, voronoi_cells

__all__ = [
    "Network",
    "GraphStats",
    "DijkstraResult",
    "shortest_path_lengths",
    "shortest_path",
    "multi_source_lengths",
    "distance_matrix",
    "DijkstraWorkspace",
    "many_source_lengths",
    "ParallelDistanceEngine",
    "resolve_workers",
    "AltOracle",
    "OracleFacilityStream",
    "select_landmarks",
    "astar_distance",
    "VoronoiPartition",
    "voronoi_cells",
    "SubgraphMapping",
    "induced_subgraph",
    "largest_component",
    "restrict_instance",
    "giant_component_instance",
    "NearestFacilityStream",
    "StreamCursor",
    "StreamPool",
    "ComponentStructure",
    "connected_components",
    "component_labels",
]
