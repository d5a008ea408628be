"""``repair_distances`` must equal a SciPy re-run, bit for bit.

The live-update paths of LDM, FULL and HYP refresh their distance rows
through :func:`repro.shortestpath.bulk.repair_distances` and promise a
state byte-identical to a rebuild, so every repaired row is compared
with :func:`multi_source_distances` on the mutated graph as raw
``uint64`` bits.  Hypothesis draws the graphs and the batches
(``derandomize=True`` keeps tier-1 deterministic) where float
shortest paths are fragile: unit lattices, whose labels tie
everywhere; zero weights and weights too small to move ``d + w``,
which the strict ``d[p] < d[x]`` supporter rule exists for; every
mutation kind alone and mixed; rows on both sides of the work limit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.ldm import LdmMethod
from repro.crypto.signer import NullSigner
from repro.errors import GraphError
from repro.graph.graph import ADD_EDGE, REMOVE_EDGE, UPDATE_WEIGHT, SpatialGraph
from repro.graph.synthetic import grid_network
from repro.shortestpath import bulk
from repro.shortestpath.bulk import multi_source_distances, repair_distances

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: Zero, the smallest subnormal, a weight that vanishes next to any label
#: >= 1, and ordinary weights.
WEIGHTS = (0.0, 5e-324, 1e-17, 0.25, 1.0, 3.0)
KINDS = (UPDATE_WEIGHT, ADD_EDGE, REMOVE_EDGE)

#: One mutation: kind, two selectors, and a weight (or a scale of the old one).
ops = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 10**6),
                         st.integers(0, 10**6),
                         st.sampled_from(WEIGHTS + ("half", "double"))),
               min_size=1, max_size=5)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _apply(graph: SpatialGraph, batch) -> None:
    for kind, i, j, weight in batch:
        edges = list(graph.edges())
        if kind == ADD_EDGE:
            ids = graph.node_ids()
            a, b = ids[i % len(ids)], ids[j % len(ids)]
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b, 1.0 if isinstance(weight, str) else weight)
        elif edges:
            u, v, old = edges[i % len(edges)]
            if kind == REMOVE_EDGE:
                graph.remove_edge(u, v)
            else:
                new = {"half": old / 2, "double": old * 2}.get(weight, weight)
                graph.update_edge_weight(u, v, new)


def _random_graph(seed: int, n: int) -> SpatialGraph:
    """A random spanning tree plus chords, weights drawn from WEIGHTS."""
    rng = random.Random(seed)
    graph = SpatialGraph()
    for node in range(n):
        graph.add_node(node, float(node % 16), float(node // 16))
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node), rng.choice(WEIGHTS))
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b, rng.choice(WEIGHTS))
    return graph


def assert_repairs(graph: SpatialGraph, sources, mutate) -> np.ndarray:
    """Mutate *graph*; the repaired rows must be SciPy's, bit for bit."""
    before = multi_source_distances(graph, sources)
    pristine = before.copy()
    version = graph.version
    mutate(graph)
    rows, cols, values = repair_distances(
        graph.to_index(), before, np.arange(len(sources)), sources,
        graph.mutations_since(version))
    after = multi_source_distances(graph, sources)
    assert before.view(np.uint64).tolist() == pristine.view(np.uint64).tolist()
    repaired = before.copy()
    repaired[rows, cols] = values
    assert np.array_equal(repaired.view(np.uint64), after.view(np.uint64))
    assert len(rows) == np.count_nonzero(pristine != after)  # only what moved
    return after


@PROPERTY
@given(side=st.integers(3, 12), batch=ops)
def test_unit_lattices(side, batch):
    graph = grid_network(side, side)
    assert_repairs(graph, graph.node_ids(), lambda g: _apply(g, batch))


@PROPERTY
@given(seed=st.integers(0, 2**16), n=st.integers(16, 240), batch=ops)
def test_zero_and_negligible_weights(seed, n, batch):
    graph = _random_graph(seed, n)
    assert_repairs(graph, graph.node_ids()[::3], lambda g: _apply(g, batch))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), batch=ops)
def test_each_mutation_kind_alone(kind, seed, batch):
    graph = _random_graph(seed, 160)
    batch = [(kind, i, j, w) for _, i, j, w in batch]
    assert_repairs(graph, graph.node_ids()[::4], lambda g: _apply(g, batch))


@PROPERTY
@given(seed=st.integers(0, 2**16), pick=st.integers(0, 10**6),
       steps=st.lists(st.sampled_from(WEIGHTS + ("half", "double", "toggle")),
                      min_size=2, max_size=4))
def test_batches_that_revisit_one_edge(seed, pick, steps):
    """Only the net change counts: w -> w/2 -> w, or a removal and its
    re-insertion, must leave the rows exactly as they were."""
    graph = _random_graph(seed, 160)
    u, v, weight = list(graph.edges())[pick % graph.num_edges]

    def mutate(g):
        for step in steps:
            if step == "toggle" and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif not g.has_edge(u, v):
                g.add_edge(u, v, weight)
            else:
                old = g.weight(u, v)
                g.update_edge_weight(
                    u, v, {"half": old / 2, "double": old * 2}.get(step, step))

    assert_repairs(graph, graph.node_ids()[::4], mutate)


def test_disconnecting_removal_yields_inf_and_the_graph_error(road300):
    graph = road300.copy()
    anchor = graph.node_ids()[0]
    pendant = max(graph.node_ids()) + 1
    graph.add_node(pendant, graph.node(anchor).x, graph.node(anchor).y + 1)
    graph.add_edge(pendant, anchor, 5.0)
    sources = graph.node_ids()[::25]
    after = assert_repairs(graph.copy(), sources,
                           lambda g: g.remove_edge(pendant, anchor))
    assert np.isinf(after[:, -1]).all() and np.isfinite(after[:, :-1]).all()

    method = LdmMethod.build(graph, NullSigner(), c=6)
    vectors, descriptor = method._vectors.copy(), method.descriptor
    graph.remove_edge(pendant, anchor)
    with pytest.raises(GraphError):
        method.apply_update(NullSigner())
    assert np.array_equal(method._vectors, vectors)  # rejected before any write
    assert method.descriptor is descriptor


@pytest.mark.parametrize("side, reruns", [(4, 1), (40, 0)])
def test_work_limit_follows_graph_size(side, reruns, monkeypatch):
    """Raising the source's first edge moves the side - 1 labels along
    the lattice's first row: more than ``n // 16`` on a 4x4 lattice (the
    row is re-run), far fewer on a 40x40 one (it is repaired)."""
    calls = []
    scipy_dijkstra = bulk.csgraph_dijkstra

    def counting(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return scipy_dijkstra(*args, **kwargs)

    def raise_first_edge(graph):
        monkeypatch.setattr(bulk, "csgraph_dijkstra", counting)
        graph.update_edge_weight(0, 1, 1.5)

    graph = grid_network(side, side)
    after = assert_repairs(graph, [0], raise_first_edge)
    assert after[0, side - 1] == side - 0.5
    assert len(calls) == 1 + reruns  # the reference run, plus any re-run
