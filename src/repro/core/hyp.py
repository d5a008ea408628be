"""HYP — hyper-graph verification (paper §V-B).

The owner tiles the network into ``p`` grid cells, marks border nodes,
and materializes a hyper-edge ``W*(b1, b2) = dist(b1, b2)`` for every
pair of border nodes (footnote 1) in a distance Merkle B-tree.  Each
extended tuple Φ(v) carries the node's cell id and border flag
(Eq. 7).

The proof has two parts, combined into one response:

* **coarse proof** — Φ of every node in the source and target cells,
  plus the hyper-edges between the two cells' border sets (all pairs
  inside the union when the two cells coincide).  By Theorem 2 the
  shortest path distance on this coarse graph equals ``dist(vs, vt)``.
* **fine proof** — Φ of the nodes the reported path crosses in
  intermediate cells, letting the client re-add the path's edge
  weights and match them against the coarse distance.

A third tiny ADS, the *cell directory*, maps each cell to its sorted
member list so the client can detect withheld cell members (see
docs/architecture.md — the paper leaves this completeness check implicit).
"""

from __future__ import annotations

import time
from math import inf

import numpy as np

from repro.core.checks import (
    NetworkTreeBundle,
    check_reported_path,
    resign_descriptor,
    sign_descriptor,
)
from repro.core.framework import VerificationResult, distances_close
from repro.core.incremental import (
    affected_sources,
    edge_endpoints,
    needs_layout_rebuild,
)
from repro.core.method import (
    VerificationMethod,
    check_algo_sp,
    register_method,
)
from repro.core.state import dump_bundle, load_bundle, load_descriptor_tree
from repro.core.proofs import (
    DIRECTORY_TREE,
    DISTANCE_TREE,
    NETWORK_TREE,
    QueryResponse,
    SignedDescriptor,
    TreeConfig,
    TreeSection,
)
from repro.crypto.hashing import get_hash
from repro.crypto.signer import Signer
from repro.errors import ArtifactError, EncodingError, GraphError, MethodError
from repro.graph.graph import GraphMutation, SpatialGraph
from repro.graph.tuples import (
    CellDirectoryTuple,
    DistanceTuple,
    HypTuple,
    decode_columns,
    decode_distance_columns,
    triangle_leaf_digests,
)
from repro.hiti.hyperedges import HyperEdgeSet, TileLayout, compute_hyperedges
from repro.hiti.partition import GridPartition, GridSpec
from repro.merkle.tree import MerkleTree
from repro.shortestpath.bulk import repair_distances
from repro.shortestpath.kernel import indexed_shortest_path, search
from repro.shortestpath.path import Path


def _make_tuple_factory(graph: SpatialGraph, partition: GridPartition):
    """Φ(v) encoder bound to one partition state (Eq. 7).

    Shared by ``build`` and the update path so incremental
    re-authentication re-encodes tuples exactly as a fresh build would.
    """

    def tuple_factory(node_id: int) -> HypTuple:
        node = graph.node(node_id)
        adjacency = tuple(sorted(
            (int(v), float(w)) for v, w in graph.neighbors(node_id).items()
        ))
        return HypTuple(node.id, node.x, node.y, adjacency,
                        cell_id=partition.cell(node_id),
                        is_border=partition.is_border(node_id))

    return tuple_factory


def _tile_layout(partition: GridPartition, hyper: HyperEdgeSet) -> TileLayout:
    return TileLayout([partition.cell(b) for b in hyper.borders])


def _build_distance_tree(hyper: HyperEdgeSet, layout: TileLayout,
                         fanout: int, hash_fn) -> MerkleTree:
    """Hash the hyper-edge tuples in id order, store them in tile order."""
    hash_fn = get_hash(hash_fn)
    digests = triangle_leaf_digests(hyper.borders, hyper.distances, hash_fn)
    return MerkleTree(leaf_digests=layout.permute(digests, hash_fn.digest_size),
                      fanout=fanout, hash_fn=hash_fn)


@register_method
class HypMethod(VerificationMethod):
    """Hyper-graph verification over a 2-level HiTi grid."""

    name = "HYP"

    def __init__(self, graph: SpatialGraph, bundle: NetworkTreeBundle,
                 partition: GridPartition, hyper: HyperEdgeSet,
                 layout: TileLayout,
                 distance_tree: MerkleTree, directory_tree: MerkleTree,
                 directory_payloads: "dict[int, tuple[int, bytes]]",
                 descriptor: SignedDescriptor) -> None:
        super().__init__()
        self._graph = graph
        self._bundle = bundle
        self._partition = partition
        self._hyper = hyper
        self._layout = layout
        self._distance_tree = distance_tree
        self._directory_tree = directory_tree
        #: cell id -> (leaf position, payload)
        self._directory_payloads = directory_payloads
        self._descriptor = descriptor

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: SpatialGraph, signer: Signer, *, fanout: int = 2,
              ordering: str = "hbt", hash_name: str = "sha1",
              num_cells: int = 100, algo_sp: str = "dijkstra",
              **params) -> "HypMethod":
        if params:
            raise EncodingError(f"HYP got unknown parameters {sorted(params)}")
        check_algo_sp(algo_sp)
        start = time.perf_counter()
        partition = GridPartition(graph, num_cells)
        hyper = compute_hyperedges(graph, partition.all_borders())
        layout = _tile_layout(partition, hyper)
        distance_tree = _build_distance_tree(hyper, layout, fanout, hash_name)
        directory_payloads: dict[int, tuple[int, bytes]] = {}
        payload_list: list[bytes] = []
        for position, cell in enumerate(partition.occupied_cells):
            payload = CellDirectoryTuple(
                cell, tuple(partition.members_of(cell))
            ).encode()
            directory_payloads[cell] = (position, payload)
            payload_list.append(payload)
        directory_tree = MerkleTree(payload_list, fanout=fanout, hash_fn=hash_name)
        construction = time.perf_counter() - start

        bundle = NetworkTreeBundle(graph, _make_tuple_factory(graph, partition),
                                   ordering=ordering, fanout=fanout,
                                   hash_name=hash_name)
        descriptor = sign_descriptor(
            SignedDescriptor(
                method=cls.name,
                hash_name=hash_name,
                params=partition.spec.encode(),
                trees=(
                    TreeConfig(NETWORK_TREE, bundle.tree.num_leaves, fanout,
                               bundle.tree.root),
                    TreeConfig(DISTANCE_TREE, distance_tree.num_leaves, fanout,
                               distance_tree.root),
                    TreeConfig(DIRECTORY_TREE, directory_tree.num_leaves, fanout,
                               directory_tree.root),
                ),
                version=graph.version,
            ),
            signer,
        )
        method = cls(graph, bundle, partition, hyper, layout, distance_tree,
                     directory_tree, directory_payloads, descriptor)
        method.construction_seconds = construction
        method.algo_sp = algo_sp
        method._synced_version = graph.version
        method._build_params = dict(fanout=fanout, ordering=ordering,
                                    hash_name=hash_name, num_cells=num_cells,
                                    algo_sp=algo_sp)
        method._publish_params = method._build_params
        return method

    # ------------------------------------------------------------------
    # serve-state persistence
    # ------------------------------------------------------------------
    def _dump_sections(self, state) -> None:
        if self._hyper.source_rows is None:
            raise MethodError(
                "HYP method with an externally built hyper layer has no "
                "source rows to persist; rebuild from the graph first"
            )
        dump_bundle(state, self._bundle)
        # The grid partition and the cell directory are deterministic
        # functions of the graph; only the border multi-source rows —
        # the dominant construction cost — need to travel.  The (B, B)
        # hyper-edge matrix is re-sliced from them on load with the
        # exact symmetrization the build uses, so it stays bit-identical
        # without its own section; so is the tile layout, from the
        # partition.
        state.arrays["hyp/source_rows"] = self._hyper.source_rows
        state.blobs["distance/tree"] = self._distance_tree.dump_state()
        state.blobs["directory/tree"] = self._directory_tree.dump_state()

    @classmethod
    def _load_sections(cls, state) -> "HypMethod":
        graph = state.graph
        num_cells = state.build_params.get("num_cells")
        if not isinstance(num_cells, int):
            raise ArtifactError("build params carry no cell count")
        try:
            partition = GridPartition(graph, num_cells)
        except GraphError as exc:
            raise ArtifactError(f"cannot re-partition the graph: {exc}") from exc
        borders = partition.all_borders()
        if not borders:
            raise ArtifactError("rehydrated partition has no border nodes")
        source_rows = state.array("hyp/source_rows", dtype=np.float64,
                                  shape=(len(borders), graph.num_nodes))
        col_of = graph.to_index().index_of
        sliced = source_rows[:, [col_of[b] for b in borders]]
        hyper = HyperEdgeSet(borders, np.minimum(sliced, sliced.T),
                             source_rows=source_rows)
        distance_tree = load_descriptor_tree(state, "distance/tree",
                                             DISTANCE_TREE)
        if distance_tree.num_leaves != hyper.num_pairs:
            raise ArtifactError(
                f"distance tree has {distance_tree.num_leaves} leaves for "
                f"{hyper.num_pairs} hyper-edge pairs"
            )
        directory_payloads: dict[int, tuple[int, bytes]] = {}
        for position, cell in enumerate(partition.occupied_cells):
            payload = CellDirectoryTuple(
                cell, tuple(partition.members_of(cell))
            ).encode()
            directory_payloads[cell] = (position, payload)
        directory_tree = load_descriptor_tree(state, "directory/tree",
                                              DIRECTORY_TREE)
        if directory_tree.num_leaves != len(directory_payloads):
            raise ArtifactError(
                f"directory tree has {directory_tree.num_leaves} leaves for "
                f"{len(directory_payloads)} occupied cells"
            )
        bundle = load_bundle(state, _make_tuple_factory(graph, partition))
        return cls(graph, bundle, partition, hyper,
                   _tile_layout(partition, hyper), distance_tree,
                   directory_tree, directory_payloads, state.descriptor)

    # ------------------------------------------------------------------
    def _border_flags_moved(self, mutations: "list[GraphMutation]") -> bool:
        """Whether the batch flipped any endpoint's border status.

        Only structural mutations can: a node is a border node iff some
        neighbor lives in another cell, and the batch only changed the
        neighbor sets of its endpoints.
        """
        partition = self._partition
        for node_id in edge_endpoints(mutations):
            cell = partition.cell(node_id)
            is_border = any(
                partition.cell(nbr) != cell
                for nbr in self._graph.neighbors(node_id)
            )
            if is_border != partition.is_border(node_id):
                return True
        return False

    def _apply_mutations(self, mutations: "list[GraphMutation]",
                         signer: Signer) -> tuple[str, int, int]:
        """Re-derive only the hyper-edge rows the batch can have touched.

        The grid partition depends on coordinates alone and the cell
        directory on membership alone, so both survive any edge
        mutation.  Weight changes leave the border set intact: the
        affected-source filter picks the border nodes whose shortest
        path forests could cross a mutated edge, their raw rows are
        repaired, and the re-symmetrized pairs that moved are patched
        into the distance tree.  A structural mutation that flips a
        border flag changes the hyper-edge *set* itself, so the hyper
        layer is reconstructed wholesale while the partition, directory
        tree and untouched Φ leaves are kept — the targeted partial
        rebuild.
        """
        if needs_layout_rebuild(mutations, self._bundle.ordering):
            return self._rebuild(signer)
        if self._hyper.source_rows is None:  # externally-built hyper layer
            return self._rebuild(signer)
        graph = self._graph
        old = self._descriptor
        fanout = old.tree(DISTANCE_TREE).fanout
        hash_fn = self._distance_tree.hash_fn
        mode, trees_rebuilt = "incremental", 0

        if self._border_flags_moved(mutations):
            # Border set changed: same grid, new hyper layer.  Build
            # everything before committing any of it, so a rejected
            # mutation (e.g. a disconnecting removal raising inside
            # compute_hyperedges) leaves the method untouched and the
            # caller free to roll the graph back.
            partition = GridPartition(graph, self._partition.spec.num_cells)
            flag_flips = {
                node_id for node_id, flag in partition.border_flags.items()
                if flag != self._partition.border_flags[node_id]
            }
            hyper = compute_hyperedges(graph, partition.all_borders())
            layout = _tile_layout(partition, hyper)
            distance_tree = _build_distance_tree(hyper, layout, fanout, hash_fn)
            self._partition = partition
            self._hyper = hyper
            self._layout = layout
            self._distance_tree = distance_tree
            bundle = self._bundle
            bundle.set_tuple_factory(_make_tuple_factory(graph, partition))
            leaves_patched = bundle.refresh_nodes(
                flag_flips | edge_endpoints(mutations))
            mode, trees_rebuilt = "partial-rebuild", 1
        else:
            hyper = self._hyper
            index = graph.to_index()
            affected = affected_sources(hyper.source_rows, mutations,
                                        index.index_of)
            rows, cols, values = repair_distances(
                index, hyper.source_rows, affected,
                [hyper.borders[i] for i in affected.tolist()], mutations)
            border_cols = np.array([index.index_of[b] for b in hyper.borders])
            position = np.full(index.num_nodes, -1)
            position[border_cols] = np.arange(len(border_cols))
            on_border = position[cols] >= 0
            # Reject before touching method state: unaffected rows are
            # finite, so a disconnected border pair can only show up in
            # the repaired entries' border columns.
            if np.isinf(values[on_border]).any():
                raise GraphError(
                    "disconnected border pair; HYP requires a connected graph")
            hyper.source_rows[rows, cols] = values
            # Re-symmetrize only the pairs a repaired entry belongs to.
            i, j = rows[on_border], position[cols[on_border]]
            low, high = np.minimum(i, j)[i != j], np.maximum(i, j)[i != j]
            symmetric = np.minimum(hyper.source_rows[low, border_cols[high]],
                                   hyper.source_rows[high, border_cols[low]])
            moved = symmetric != hyper.distances[low, high]
            low, high, symmetric = low[moved], high[moved], symmetric[moved]
            hyper.distances[low, high] = hyper.distances[high, low] = symmetric
            changed = {
                leaf: DistanceTuple(hyper.borders[a], hyper.borders[b],
                                    w).encode()
                for leaf, a, b, w in zip(
                    self._layout.leaf(low, high).tolist(), low.tolist(),
                    high.tolist(), symmetric.tolist())
            }
            self._distance_tree.update_leaves(changed)
            leaves_patched = len(changed) + self._bundle.refresh_nodes(
                edge_endpoints(mutations))

        self._synced_version = graph.version  # a failed re-sign replays from here
        self._descriptor = resign_descriptor(
            old, signer,
            trees=(
                TreeConfig(NETWORK_TREE, self._bundle.tree.num_leaves,
                           old.tree(NETWORK_TREE).fanout,
                           self._bundle.tree.root),
                TreeConfig(DISTANCE_TREE, self._distance_tree.num_leaves,
                           fanout, self._distance_tree.root),
                TreeConfig(DIRECTORY_TREE, self._directory_tree.num_leaves,
                           old.tree(DIRECTORY_TREE).fanout,
                           self._directory_tree.root),
            ),
            version=graph.version,
        )
        return mode, leaves_patched, trees_rebuilt

    # ------------------------------------------------------------------
    def answer(self, source: int, target: int, *,
               forced_path: "Path | None" = None) -> QueryResponse:
        path = forced_path if forced_path is not None else \
            indexed_shortest_path(self._graph.to_index(), source, target)
        cell_s = self._partition.cell(source)
        cell_t = self._partition.cell(target)
        members = set(self._partition.members_of(cell_s))
        members.update(self._partition.members_of(cell_t))

        network_nodes = members | set(path.nodes)
        network_section = self._bundle.section_for(network_nodes)

        # The query's hyper-edges are exactly one tile of the distance
        # tree; walking it in tile order yields the leaf run's payloads.
        low, high = sorted((cell_s, cell_t))
        borders_low = self._partition.borders_of(low)
        if low == high:
            pairs = [(a, b) for k, a in enumerate(borders_low)
                     for b in borders_low[k + 1:]]
        else:
            borders_high = self._partition.borders_of(high)
            pairs = [(a, b) if a < b else (b, a)
                     for a in borders_low for b in borders_high]
        sections = {NETWORK_TREE: network_section}
        if pairs:
            weight = self._hyper.weight
            start = self._layout.tile_start_of(low, high)
            positions = list(range(start, start + len(pairs)))
            sections[DISTANCE_TREE] = TreeSection(
                DISTANCE_TREE, positions,
                [DistanceTuple(a, b, weight(a, b)).encode() for a, b in pairs],
                self._distance_tree.prove(positions),
            )
        dir_cells = sorted({cell_s, cell_t})
        dir_positions = [self._directory_payloads[c][0] for c in dir_cells]
        dir_payloads = [self._directory_payloads[c][1] for c in dir_cells]
        sections[DIRECTORY_TREE] = TreeSection(
            DIRECTORY_TREE, dir_positions, dir_payloads,
            self._directory_tree.prove(dir_positions),
        )
        return QueryResponse(
            method=self.name,
            source=source,
            target=target,
            path_nodes=path.nodes,
            path_cost=path.cost,
            sections=sections,
            descriptor=self._descriptor,
        )

    # ------------------------------------------------------------------
    @classmethod
    def decode_proof(cls, response: QueryResponse) -> tuple:
        GridSpec.decode(response.descriptor.params)  # structural sanity
        columns = decode_columns(response.section(NETWORK_TREE).payloads, HypTuple)
        directories = [CellDirectoryTuple.decode(p)
                       for p in response.section(DIRECTORY_TREE).payloads]
        hyper = (np.empty(0),) * 3
        if DISTANCE_TREE in response.sections:
            hyper = decode_distance_columns(
                response.section(DISTANCE_TREE).payloads)
        return columns, directories, hyper

    @classmethod
    def check(cls, source: int, target: int, response: QueryResponse,
              proof: tuple) -> VerificationResult:
        columns, directories, (hyper_a, hyper_b, hyper_w) = proof
        start, goal = columns.row_of(source), columns.row_of(target)
        if start < 0 or goal < 0:
            return VerificationResult.failure(
                "endpoint-missing", "no authenticated tuple for source or target"
            )
        ids, cell = columns.ids, columns.tail["cell_id"]
        cell_s, cell_t = int(cell[start]), int(cell[goal])

        # --- cell directory completeness -----------------------------
        directory_cells = {d.cell_id for d in directories}
        if directory_cells != {cell_s, cell_t}:
            return VerificationResult.failure(
                "directory-mismatch",
                f"directories cover cells {sorted(directory_cells)}, "
                f"expected {sorted({cell_s, cell_t})}",
            )
        for directory in directories:
            provided = ids[cell == directory.cell_id].tolist()  # ascending
            if provided != sorted(set(directory.member_ids)):
                return VerificationResult.failure(
                    "incomplete-cell",
                    f"cell {directory.cell_id}: disclosed members do not match "
                    f"the authenticated directory",
                )

        # --- hyper-edge completeness ----------------------------------
        # Border rows ascend by id, so ``low < high`` holds row-wise too.
        border = columns.tail["is_border"]
        borders_s = np.flatnonzero(border & (cell == cell_s))
        if cell_s == cell_t:
            i, j = np.triu_indices(len(borders_s), 1)
            low, high = borders_s[i], borders_s[j]
        else:
            borders_t = np.flatnonzero(border & (cell == cell_t))
            a = np.repeat(borders_s, len(borders_t))
            b = np.tile(borders_t, len(borders_s))
            low, high = np.minimum(a, b), np.maximum(a, b)
        expected = list(zip(ids[low].tolist(), ids[high].tolist()))
        weight_of = dict(zip(
            zip(np.minimum(hyper_a, hyper_b).tolist(),
                np.maximum(hyper_a, hyper_b).tolist()),
            hyper_w.tolist(),
        ))
        if len(weight_of) != len(hyper_w):
            return VerificationResult.failure(
                "malformed-proof", "duplicate hyper-edge tuple for one pair"
            )
        missing = [pair for pair in expected if pair not in weight_of]
        if missing:
            return VerificationResult.failure(
                "incomplete-hyperedges",
                f"{len(missing)} required hyper-edges are undisclosed "
                f"(e.g. {min(missing)})",
            )

        # --- coarse graph search (Theorem 2) --------------------------
        # G_coarse: the two cells' nodes, every real edge with both ends
        # among them (read once, from its lower endpoint's Φ) and the
        # required hyper-edges; edges that leave the cells are what the
        # hyper-edges stand for.  Parallel edges need no merging — the
        # search takes the cheaper one — and none is undisclosed, so the
        # search needs no gap rule.
        in_cells = (cell == cell_s) | (cell == cell_t)
        tail = np.repeat(np.arange(len(columns)), np.diff(columns.indptr))
        head = columns.nbrs
        real = in_cells[tail] & (head > tail) & in_cells[head]
        tail = np.concatenate((tail[real], low))
        head = np.concatenate((head[real], high))
        weight = np.concatenate((columns.weights[real],
                                 [weight_of[pair] for pair in expected]))
        tail, head = np.concatenate((tail, head)), np.concatenate((head, tail))
        order = np.argsort(tail, kind="stable")
        indptr = np.searchsorted(tail[order], np.arange(len(columns) + 1))
        coarse_distance = search(
            indptr.tolist(), head[order].tolist(),
            np.concatenate((weight, weight))[order].tolist(),
            start, goal).dist[goal]
        if coarse_distance == inf:
            return VerificationResult.failure(
                "target-unreachable",
                "target is unreachable in the coarse proof graph",
            )

        # --- fine proof: the reported path itself ----------------------
        failure = check_reported_path(source, target, response, columns)
        if failure is not None:
            return failure
        if not distances_close(coarse_distance, response.path_cost):
            return VerificationResult.failure(
                "not-optimal",
                f"coarse graph distance {coarse_distance} != reported "
                f"path cost {response.path_cost}",
            )
        return VerificationResult.success(
            distance=coarse_distance,
            coarse_nodes=int(in_cells.sum()),
            hyper_edges=len(expected),
        )
