"""Range-targeted query workload generation.

The paper's workload: 100 ``(vs, vt)`` pairs whose shortest path
distance is as close as possible to the *query range* (default 2,000
on the normalized ``[0, 10000]^2`` canvas).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.graph.graph import SpatialGraph
from repro.shortestpath.kernel import indexed_search


@dataclass(frozen=True)
class QueryWorkload:
    """A batch of shortest path queries targeting one range."""

    query_range: float
    queries: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def generate_workload(
    graph: SpatialGraph,
    query_range: float,
    count: int = 100,
    *,
    seed: int = 0,
    tolerance: float = 0.25,
    max_attempts_factor: int = 20,
) -> QueryWorkload:
    """Generate *count* queries with shortest distance ~ *query_range*.

    For each query a random source is drawn; a Dijkstra expansion out
    to ``query_range`` picks the settled node whose distance is closest
    to the range.  Sources whose best candidate misses the range by
    more than ``tolerance * query_range`` are rejected and resampled
    (peripheral sources cannot reach far enough).

    Raises :class:`WorkloadError` when the graph cannot satisfy the
    request (e.g. range far beyond the network diameter).
    """
    if query_range <= 0:
        raise WorkloadError(f"query range must be positive, got {query_range}")
    if count < 1:
        raise WorkloadError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    ids = graph.node_ids()
    index = graph.to_index()
    queries: list[tuple[int, int]] = []
    attempts = 0
    max_attempts = max_attempts_factor * count
    while len(queries) < count:
        attempts += 1
        if attempts > max_attempts:
            raise WorkloadError(
                f"could not generate {count} queries at range {query_range} "
                f"after {attempts} attempts; got {len(queries)} — is the range "
                f"beyond the network diameter?"
            )
        source = ids[rng.randrange(len(ids))]
        ball = indexed_search(index, source,
                              limit=query_range * (1 + tolerance))
        best_target = None
        best_error = float("inf")
        for node, dist in ball.distances().items():
            if node == source:
                continue
            error = abs(dist - query_range)
            if error < best_error:
                best_error = error
                best_target = node
        if best_target is None or best_error > tolerance * query_range:
            continue
        queries.append((source, best_target))
    return QueryWorkload(query_range=query_range, queries=tuple(queries))
