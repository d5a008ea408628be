"""Shared machinery for incremental hint re-authentication.

The hint-bearing methods (FULL, LDM, HYP) all materialize *distance
rows*: ``dist(s, ·)`` for every source in some set (all nodes, the
landmarks, the border nodes).  A single edge mutation leaves most of
those rows untouched — on a road network a re-weighted street segment
only moves distances for sources whose shortest paths actually crossed
it.  :func:`affected_sources` computes a sound superset of the rows a
batch of mutations can have changed, so ``apply_update`` repairs only
those rows (:func:`repro.shortestpath.bulk.repair_distances`) and
patches only the Merkle leaves whose payloads really moved.

Soundness of the filter (why unflagged rows cannot have changed):

* *weight increase / edge removal* — a row can only change if the old
  shortest path forest from that source used the edge, which requires
  the edge to be **tight**: ``dist(s, v) == dist(s, u) + w_old`` (or
  symmetrically).  The bulk backend computed ``dist(s, v)`` as exactly
  that float sum when it routed through the edge, so an equality test
  with a small widening margin catches every tight source.
* *weight decrease / edge insertion* — a row can only change if the
  new edge **improves** some distance; following the first mutated
  edge on any improved path shows the improvement is visible at the
  edge itself against the old row: ``dist(s, u) + w_new < dist(s, v)``
  (or symmetrically).
* *batches* — the union of per-mutation criteria, each evaluated
  against the pre-batch rows, still covers every changed row: any
  cascade of changes starts at some mutated edge where one of the two
  tests fires against the old values.

The margins only ever widen the superset (repairing an unchanged row
is wasted work, never wrong).  A repaired row is the same float fixed
point ``min_p fl(d[p] + w(p, x))`` SciPy's Dijkstra returns, so the
patched state stays byte-identical to a full rebuild.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graph.graph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    UPDATE_WEIGHT,
    GraphMutation,
)

#: Widening margins for the tight/improving tests.  Relative to the
#: framework's distance tolerances they are generous; the only cost of
#: widening is recomputing a few extra (unchanged) rows.
_REL = 1e-9
_ABS = 1e-6


def _margin(values: np.ndarray) -> np.ndarray:
    return _REL * np.abs(values) + _ABS


def affected_sources(
    matrix: np.ndarray,
    mutations: Sequence[GraphMutation],
    index_of: Mapping[int, int],
) -> np.ndarray:
    """Rows of *matrix* that *mutations* can have changed.

    ``matrix`` is an ``(R, n)`` distance array whose columns follow
    ``graph.node_ids()`` order (``index_of`` maps node id to column);
    rows belong to an arbitrary source set.  Returns the sorted row
    indices matching the tight/improving criteria above.  ``add-node``
    mutations are the caller's problem (they change the column space)
    and raise.
    """
    mask = np.zeros(matrix.shape[0], dtype=bool)
    for mutation in mutations:
        if mutation.kind == ADD_NODE:
            raise ValueError("add-node changes the column space; rebuild instead")
        du = matrix[:, index_of[mutation.u]]
        dv = matrix[:, index_of[mutation.v]]
        if mutation.kind in (UPDATE_WEIGHT, REMOVE_EDGE):
            w_old = mutation.old_weight
            gap = np.abs(du - dv)
            mask |= np.abs(gap - w_old) <= _margin(gap) + _margin(
                np.asarray(w_old))
        if mutation.kind in (UPDATE_WEIGHT, ADD_EDGE):
            w_new = mutation.weight
            slack = _margin(du) + _margin(np.asarray(w_new))
            mask |= (du + w_new <= dv + slack) | (dv + w_new <= du + slack)
    return np.nonzero(mask)[0]


def edge_endpoints(mutations: Sequence[GraphMutation]) -> set[int]:
    """Node ids whose adjacency list (and hence Φ) the batch touched."""
    endpoints: set[int] = set()
    for mutation in mutations:
        if mutation.kind == ADD_NODE:
            endpoints.add(mutation.u)
        else:
            endpoints.add(mutation.u)
            endpoints.add(mutation.v)
    return endpoints


def needs_layout_rebuild(mutations: Sequence[GraphMutation],
                         ordering: str) -> bool:
    """Whether the batch invalidates the Merkle leaf layout itself.

    New nodes always do (the leaf set changes).  Edge insertions and
    removals do only under adjacency-dependent orderings (bfs/dfs),
    whose permutation a from-scratch build would recompute differently;
    the coordinate-based orderings (hbt, kd, rand) are stable.
    """
    if any(m.kind == ADD_NODE for m in mutations):
        return True
    if ordering in ("bfs", "dfs"):
        return any(m.kind in (ADD_EDGE, REMOVE_EDGE) for m in mutations)
    return False
