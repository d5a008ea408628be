"""HYP's distance tree is laid out by cell pair.

One query discloses exactly one tile of it, so the distance section is
a single contiguous leaf run under a logarithmic cover — whichever way
the method came to its current state (build, artifact load, leaf
patches, a border-set rebuild).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.hyp import HypMethod
from repro.core.proofs import DISTANCE_TREE
from repro.graph.tuples import DistanceTuple
from repro.workload.queries import generate_workload
from tests.core.test_update_equivalence import assert_equivalent


def same_cell_pairs(method):
    """One ``(source, target)`` per cell with at least two border nodes."""
    partition = method._partition
    return [
        (members[0], members[-1])
        for cell in partition.occupied_cells
        if len(partition.borders_of(cell)) >= 2
        and len(members := partition.members_of(cell)) >= 2
    ]


def assert_one_run(method, fanout, queries, signer):
    tree = method._distance_tree
    bound = 2 * (fanout - 1) * math.ceil(math.log(tree.num_leaves, fanout))
    hyper = method._hyper
    for vs, vt in queries:
        response = method.answer(vs, vt)
        section = response.sections[DISTANCE_TREE]
        positions = section.positions
        assert positions == list(range(positions[0], positions[-1] + 1))
        assert len(section.entries) <= bound
        # Each payload sits at the leaf the layout computes for its pair.
        tuples = [DistanceTuple.decode(p) for p in section.payloads]
        assert all(t.a < t.b for t in tuples)
        rows = np.array([hyper.position_of[t.a] for t in tuples])
        cols = np.array([hyper.position_of[t.b] for t in tuples])
        assert method._layout.leaf(rows, cols).tolist() == positions
        result = HypMethod.verify(vs, vt, response, signer.verify)
        assert result.ok, (result.reason, result.detail)


@pytest.mark.parametrize("fanout", [2, 4])
def test_distance_section_is_one_run_under_a_log_cover(road300, signer, fanout):
    method = HypMethod.build(road300, signer, num_cells=25, fanout=fanout)
    cross_cell = generate_workload(road300, 1500.0, count=12, seed=77).queries
    same_cell = same_cell_pairs(method)
    assert same_cell
    assert_one_run(method, fanout, list(cross_cell) + same_cell, signer)


def test_loaded_layout_equals_built_layout(hyp):
    loaded = HypMethod.load_state(hyp.dump_state())
    for slot in ("cell_rank", "rank_in_cell", "counts", "tile_start"):
        got, want = getattr(loaded._layout, slot), getattr(hyp._layout, slot)
        assert got.dtype == want.dtype and np.array_equal(got, want), slot
    assert loaded._layout.rank_of == hyp._layout.rank_of


def test_update_equals_rebuild_after_reweight_and_border_flip(
        road300, signer, workload):
    graph = road300.copy()
    method = HypMethod.build(graph, signer, num_cells=25)
    partition = method._partition
    queries = list(workload.queries[:4]) + same_cell_pairs(method)[:2]

    u, v, weight = next(iter(graph.edges()))
    graph.update_edge_weight(u, v, weight * 3.0)
    report = method.apply_update(signer)
    assert report.mode == "incremental" and report.leaves_patched > 0
    assert_equivalent(method, graph, signer, queries)
    assert_one_run(method, 2, queries, signer)

    # An edge from an interior node into another cell makes it a border
    # node: the hyper-edge set, and with it every tile offset, changes.
    interior = next(n for n in graph.node_ids() if not partition.is_border(n))
    other = next(n for n in graph.node_ids()
                 if partition.cell(n) != partition.cell(interior))
    borders_before = len(method._hyper.borders)
    graph.add_edge(interior, other, 50.0)
    report = method.apply_update(signer)
    assert report.mode == "partial-rebuild"
    assert len(method._hyper.borders) > borders_before
    assert_equivalent(method, graph, signer, queries)
    assert_one_run(method, 2, queries, signer)
