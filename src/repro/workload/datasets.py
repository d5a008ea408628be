"""Named benchmark datasets: synthetic stand-ins for the DCW networks.

The paper's datasets (Digital Chart of the World road networks, no
longer distributed):

========  =========  =========
name      nodes      edges
========  =========  =========
DE         28,867     30,429
ARG        85,287     88,357
IND       149,566    155,483
NA        175,813    179,179
========  =========  =========

:func:`load_dataset` generates a synthetic road network with the same
structural fingerprint (see :mod:`repro.graph.synthetic`) scaled by
``scale`` (default 1/16).  The default scale keeps every experiment —
including FULL's quadratic materialization on the smaller networks —
inside a Python-friendly budget while preserving all relative trends.
Results are cached per (name, scale) within the process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.graph.components import largest_component
from repro.graph.graph import SpatialGraph
from repro.graph.synthetic import road_network
from repro.shortestpath.kernel import indexed_search


@dataclass(frozen=True)
class DatasetSpec:
    """Paper dataset fingerprint."""

    name: str
    paper_nodes: int
    paper_edges: int
    seed: int


DATASET_SPECS: dict[str, DatasetSpec] = {
    "DE": DatasetSpec("DE", 28_867, 30_429, seed=1701),
    "ARG": DatasetSpec("ARG", 85_287, 88_357, seed=1702),
    "IND": DatasetSpec("IND", 149_566, 155_483, seed=1703),
    "NA": DatasetSpec("NA", 175_813, 179_179, seed=1704),
}

DEFAULT_SCALE = 1.0 / 16.0

#: Weighted network diameter every dataset is normalized to.  In the DCW
#: data the query ranges (250..8000, default 2000) live on the *weight*
#: scale: range 2000 already covers a large fraction of a network (the
#: paper's DIJ proof discloses 88% of DE's nodes at the default range),
#: while range-8000 queries still exist.  A 9000-unit diameter supports
#: the full range sweep; at the default range the Dijkstra ball covers a
#: large share of the graph, as in the paper.
TARGET_DIAMETER = 9000.0

_CACHE: dict[tuple[str, float], SpatialGraph] = {}


def _approximate_diameter(graph: SpatialGraph, sweeps: int = 2) -> float:
    """Double-sweep lower bound on the weighted diameter."""
    ids = graph.node_ids()
    start = ids[0]
    best = 0.0
    for _ in range(sweeps):
        result = indexed_search(graph.to_index(), start)
        far_node, far_dist = max(result.distances().items(), key=lambda kv: kv[1])
        best = max(best, far_dist)
        start = far_node
    return best


def normalize_weights(graph: SpatialGraph, target_diameter: float) -> SpatialGraph:
    """Rescale all edge weights so the weighted diameter ~ *target_diameter*.

    Coordinates are untouched — like the DCW data, the coordinate canvas
    and the weight scale are independent.
    """
    diameter = _approximate_diameter(graph)
    if diameter <= 0:
        return graph
    factor = target_diameter / diameter
    scaled = SpatialGraph()
    for node in graph.nodes():
        scaled.add_node(node.id, node.x, node.y)
    for u, v, w in graph.edges():
        scaled.add_edge(u, v, w * factor)
    return scaled


def dataset_names() -> list[str]:
    """The paper's dataset names in size order."""
    return ["DE", "ARG", "IND", "NA"]


def load_dataset(name: str, *, scale: float = DEFAULT_SCALE) -> SpatialGraph:
    """A synthetic stand-in for the named paper dataset at *scale*.

    The returned graph is connected (largest component of the
    generator's output) with nodes on the ``[0, 10000]^2`` canvas.
    """
    try:
        spec = DATASET_SPECS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown dataset {name!r}; choose from {dataset_names()}"
        ) from None
    if not 0 < scale <= 1:
        raise WorkloadError(f"scale must be in (0, 1], got {scale}")
    key = (name, scale)
    if key not in _CACHE:
        n_nodes = max(64, round(spec.paper_nodes * scale))
        graph = largest_component(road_network(n_nodes, seed=spec.seed))
        _CACHE[key] = normalize_weights(graph, TARGET_DIAMETER)
    return _CACHE[key]
