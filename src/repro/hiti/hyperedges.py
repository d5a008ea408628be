"""Hyper-edge materialization: exact distances between border nodes.

Following the paper's footnote 1, the owner materializes a hyper-edge
``E*(b1, b2)`` with weight ``W*(b1, b2) = dist(b1, b2)`` for **every**
unordered pair of border nodes.  The distance Merkle tree stores them
grouped by cell pair (:class:`TileLayout`), so the |Bs|×|Bt| tuples one
query discloses are a single contiguous leaf run, and each pair's leaf
index stays computable without storing a key array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import SpatialGraph
from repro.shortestpath.bulk import multi_source_distances


def triangle_index(i: int, j: int, n: int) -> int:
    """Rank of pair ``(i, j)`` (``i < j``) in upper-triangle order."""
    if not 0 <= i < j < n:
        raise GraphError(f"invalid pair ({i}, {j}) for n={n}")
    return i * n - (i * (i + 1)) // 2 + (j - i - 1)


def triangle_size(n: int) -> int:
    """Number of unordered pairs over *n* items."""
    return n * (n - 1) // 2


class TileLayout:
    """Leaf order of HYP's distance tree: one tile per unordered cell pair.

    Tiles follow ``(ci, cj)`` order over ``ci <= cj``.  An off-diagonal
    tile is row-major over ``borders_of(ci) × borders_of(cj)``; a
    diagonal tile is the upper triangle of ``borders_of(ci)``.  The
    layout is a pure function of the border nodes' cells —
    ``border_cells[i]`` is the cell of the i-th border in ascending id
    order — so a loader re-derives it from the partition.
    """

    __slots__ = ("rank_of", "cell_rank", "rank_in_cell", "counts",
                 "tile_start")

    def __init__(self, border_cells: "list[int]") -> None:
        cells, rank = np.unique(np.asarray(border_cells, dtype=np.int64),
                                return_inverse=True)
        n = len(rank)
        counts = np.bincount(rank, minlength=len(cells))
        rank_in_cell = np.empty(n, dtype=np.int64)
        rank_in_cell[np.argsort(rank, kind="stable")] = (
            np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts))
        sizes = np.triu(np.outer(counts, counts), 1)
        np.fill_diagonal(sizes, counts * (counts - 1) // 2)
        upper = np.triu_indices(len(cells))
        ends = np.cumsum(sizes[upper])
        tile_start = np.zeros_like(sizes)
        tile_start[upper] = ends - sizes[upper]
        tile_start += np.triu(tile_start, 1).T  # symmetric: look up either way
        # int32 halves the cost of the build-time permutation; every
        # intermediate of ``leaf`` stays below (n + 2)².
        dtype = np.int32 if (n + 2) ** 2 <= np.iinfo(np.int32).max \
            else np.int64
        #: cell id -> tile row/column (cells with at least one border node)
        self.rank_of = {cell: k for k, cell in enumerate(cells.tolist())}
        self.cell_rank = rank.astype(dtype)
        self.rank_in_cell = rank_in_cell.astype(dtype)
        self.counts = counts.astype(dtype)
        self.tile_start = tile_start.astype(dtype)

    def leaf(self, i, j):
        """Leaf index of border positions ``i < j`` (broadcasting arrays)."""
        ci, cj = self.cell_rank[i], self.cell_rank[j]
        ri, rj = self.rank_in_cell[i], self.rank_in_cell[j]
        counts = self.counts
        # ``i < j`` puts ``ri < rj`` inside one cell: the row-major slot
        # minus the (ri + 1)(ri + 2)/2 slots at or below the diagonal.
        return (self.tile_start[ci, cj]
                + np.where(ci > cj, rj * counts[ci] + ri, ri * counts[cj] + rj)
                - (ci == cj) * ((ri + 1) * (ri + 2) // 2))

    def tile_start_of(self, cell_a: int, cell_b: int) -> int:
        """First leaf of the tile of two cells that both have border nodes."""
        return int(self.tile_start[self.rank_of[cell_a], self.rank_of[cell_b]])

    def permute(self, digests: bytes, digest_size: int) -> bytes:
        """Triangle-order (ascending id) leaf digests re-laid in tile order."""
        n = len(self.cell_rank)
        source = np.frombuffer(digests, dtype=f"V{digest_size}")
        row, col = np.arange(n)[:, None], np.arange(n)[None, :]
        tiled = np.empty_like(source)
        # Row-major over ``row < col`` is exactly the triangle order.
        tiled[self.leaf(row, col)[row < col]] = source
        return tiled.tobytes()


class HyperEdgeSet:
    """All-pairs border distances keyed by ascending border id.

    ``distances[i, j]`` is the exact graph distance between
    ``borders[i]`` and ``borders[j]``.  ``source_rows`` optionally
    keeps the raw per-border multi-source rows over *every* node
    (pre-slicing, pre-symmetrization): incremental updates need them
    both to decide which borders a mutated edge can have affected and
    to re-symmetrize after recomputing only those rows.
    """

    __slots__ = ("borders", "position_of", "distances", "source_rows")

    def __init__(self, borders: "list[int]", distances: np.ndarray,
                 source_rows: "np.ndarray | None" = None) -> None:
        if distances.shape != (len(borders), len(borders)):
            raise GraphError(
                f"distance matrix shape {distances.shape} does not match "
                f"{len(borders)} border nodes"
            )
        self.borders = list(borders)
        self.position_of = {b: i for i, b in enumerate(borders)}
        self.distances = distances
        self.source_rows = source_rows

    @property
    def num_borders(self) -> int:
        """Number of border nodes."""
        return len(self.borders)

    @property
    def num_pairs(self) -> int:
        """Number of materialized hyper-edges."""
        return triangle_size(len(self.borders))

    def weight(self, a: int, b: int) -> float:
        """``W*(a, b)`` for two border node ids."""
        try:
            return float(self.distances[self.position_of[a], self.position_of[b]])
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]} is not a border node") from None


def compute_hyperedges(graph: SpatialGraph, borders: "list[int]") -> HyperEdgeSet:
    """Materialize hyper-edges (one multi-source Dijkstra per border).

    This is the dominant cost of HYP construction (paper Fig. 13b).
    Raises if some pair is disconnected — HYP, like the paper, assumes
    a connected network.
    """
    if not borders:
        raise GraphError("no border nodes: use at least 2x2 cells on a connected graph")
    borders = sorted(borders)
    all_dist = multi_source_distances(graph, borders)  # (B, |V|)
    _, ids, index_of = graph.to_csr()
    cols = [index_of[b] for b in borders]
    matrix = all_dist[:, cols]
    if np.isinf(matrix).any():
        raise GraphError("disconnected border pair; HYP requires a connected graph")
    # Runs from different sources agree only up to float rounding;
    # symmetrize so W*(a, b) is one well-defined value.
    matrix = np.minimum(matrix, matrix.T)
    return HyperEdgeSet(borders, matrix, source_rows=all_dist)
