"""Shared client-side verification steps and owner-side tree building.

Every method's ``verify`` runs the same skeleton
(:meth:`repro.core.method.VerificationMethod.verify`): check the
descriptor signature, decode each section's extended tuples into
columns (:func:`repro.graph.tuples.decode_columns`), reconstruct each
Merkle root from ΓS + ΓT, and validate the reported path against
authenticated adjacency.  The shared steps live here; method files
contain only the method-specific shortest path reasoning.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.api import codes
from repro.core.framework import VerificationResult, distances_close
from repro.core.proofs import NETWORK_TREE, QueryResponse, SignedDescriptor, TreeSection
from repro.crypto.signer import Signer
from repro.errors import EncodingError, MerkleError
from repro.graph.graph import SpatialGraph
from repro.graph.tuples import BaseTuple, TupleColumns
from repro.merkle.tree import MerkleTree, reconstruct_root
from repro.order import order_nodes


def verify_descriptor(
    expected_method: str,
    response: QueryResponse,
    verify_signature: Callable[[bytes, bytes], bool],
    *,
    min_version: "int | None" = None,
) -> "VerificationResult | None":
    """Signature, method-name and freshness checks; ``None`` means pass.

    ``min_version`` is the freshness floor: a client that has learned
    the owner's current descriptor version (distributed out of band,
    like the public key) passes it here, and any response whose
    descriptor predates it is rejected as a stale-proof replay — the
    signature is genuine, but it signs a superseded network.
    """
    descriptor = response.descriptor
    if response.method != expected_method or descriptor.method != expected_method:
        return VerificationResult.failure(
            codes.METHOD_MISMATCH,
            f"expected {expected_method}, response says {response.method!r} "
            f"with descriptor {descriptor.method!r}",
        )
    if not verify_signature(descriptor.message(), descriptor.signature):
        return VerificationResult.failure(
            codes.BAD_SIGNATURE, "owner signature on the descriptor does not verify"
        )
    if min_version is not None and descriptor.version < min_version:
        return VerificationResult.failure(
            codes.STALE_DESCRIPTOR,
            f"descriptor version {descriptor.version} predates the required "
            f"minimum {min_version} (stale-proof replay)",
        )
    return None


def verify_section_root(
    descriptor: SignedDescriptor,
    section: TreeSection,
) -> "VerificationResult | None":
    """Reconstruct one ADS root from ΓS + ΓT and compare with the signed root."""
    try:
        config = descriptor.tree(section.tree)
    except EncodingError:
        return VerificationResult.failure(
            codes.UNKNOWN_TREE, f"descriptor does not cover tree {section.tree!r}"
        )
    try:
        root = reconstruct_root(
            config.num_leaves,
            config.fanout,
            descriptor.hash_name,
            section.leaf_map(),
            section.entries,
        )
    except (MerkleError, EncodingError) as exc:
        return VerificationResult.failure(
            codes.MALFORMED_PROOF, f"tree {section.tree!r}: {exc}"
        )
    if root != config.root:
        return VerificationResult.failure(
            codes.ROOT_MISMATCH,
            f"tree {section.tree!r}: reconstructed root does not match the signed root",
        )
    return None


def check_reported_path(
    source: int,
    target: int,
    response: QueryResponse,
    columns: TupleColumns,
) -> "VerificationResult | None":
    """Validate the reported path against authenticated adjacency.

    Checks: endpoints match the query, every path node is covered by an
    authenticated Φ, every consecutive pair is a real edge, and the sum
    of authenticated weights equals the reported cost.
    """
    nodes = response.path_nodes
    if not nodes:
        return VerificationResult.failure(codes.EMPTY_PATH, "response contains no path")
    if nodes[0] != source or nodes[-1] != target:
        return VerificationResult.failure(
            codes.ENDPOINT_MISMATCH,
            f"path runs {nodes[0]} -> {nodes[-1]}, query was {source} -> {target}",
        )
    if len(set(nodes)) != len(nodes):
        return VerificationResult.failure(codes.PATH_CYCLE, "reported path repeats a node")
    cost = 0.0
    for u, v in zip(nodes, nodes[1:]):
        row = columns.row_of(u)
        if row < 0:
            return VerificationResult.failure(
                codes.PATH_NODE_MISSING, f"no authenticated tuple for path node {u}"
            )
        w = columns.edge_weight(row, v)
        if w is None:
            return VerificationResult.failure(
                codes.PHANTOM_EDGE, f"edge ({u}, {v}) is not in the authenticated graph"
            )
        cost += w
    if columns.row_of(nodes[-1]) < 0:
        return VerificationResult.failure(
            codes.PATH_NODE_MISSING, f"no authenticated tuple for path node {nodes[-1]}"
        )
    if not distances_close(cost, response.path_cost):
        return VerificationResult.failure(
            codes.COST_MISMATCH,
            f"authenticated path cost {cost} != reported {response.path_cost}",
        )
    return None


# ----------------------------------------------------------------------
# Owner-side helpers
# ----------------------------------------------------------------------
class NetworkTreeBundle:
    """Owner/provider state for one graph-node Merkle tree.

    Holds the leaf order, each node's leaf position, the encoded Φ
    payloads and the tree itself.  Payloads are kept both id-keyed
    (``payload_of``, the owner-facing view) and as a position-indexed
    array (``payload_at``), so the per-query section assembly sorts
    plain integer positions and indexes a list — no dict-keyed sorting
    on the server cold path.
    """

    __slots__ = ("tree", "order", "position_of", "payload_of", "payload_at",
                 "build_seconds", "ordering", "_tuple_factory")

    def __init__(
        self,
        graph: SpatialGraph,
        tuple_factory: Callable[[int], BaseTuple],
        *,
        ordering: str = "hbt",
        fanout: int = 2,
        hash_name: str = "sha1",
    ) -> None:
        start = time.perf_counter()
        self._tuple_factory = tuple_factory
        self.ordering = ordering
        graph.to_index()  # warm the compiled layout before serving starts
        self.order = order_nodes(graph, ordering)
        #: Leaf payloads by leaf position (the hot, array-indexed view).
        self.payload_at: list[bytes] = [
            tuple_factory(node_id).encode() for node_id in self.order
        ]
        self.payload_of: dict[int, bytes] = dict(zip(self.order, self.payload_at))
        self.position_of = {node_id: i for i, node_id in enumerate(self.order)}
        self.tree = MerkleTree(
            self.payload_at, fanout=fanout, hash_fn=hash_name,
        )
        self.build_seconds = time.perf_counter() - start

    @classmethod
    def from_state(
        cls,
        graph: SpatialGraph,
        tuple_factory: Callable[[int], BaseTuple],
        *,
        ordering: str,
        order: "list[int]",
        payloads: "list[bytes]",
        tree: MerkleTree,
    ) -> "NetworkTreeBundle":
        """Rehydrate a bundle from persisted serve state.

        Installs the leaf order, the encoded Φ payloads and the Merkle
        tree verbatim — nothing is re-encoded or re-hashed, which is
        what makes artifact cold-start cheap.  The *tuple_factory* is
        only exercised by later live updates; serving never calls it.
        Raises :class:`~repro.errors.ArtifactError` when order,
        payloads and tree disagree about the leaf count.
        """
        from repro.errors import ArtifactError

        if not (len(order) == len(payloads) == tree.num_leaves):
            raise ArtifactError(
                f"bundle state disagrees on its leaf count: {len(order)} "
                f"order entries, {len(payloads)} payloads, "
                f"{tree.num_leaves} tree leaves"
            )
        bundle = cls.__new__(cls)
        bundle._tuple_factory = tuple_factory
        bundle.ordering = ordering
        graph.to_index()  # warm the compiled layout before serving starts
        bundle.order = list(order)
        bundle.payload_at = list(payloads)
        bundle.payload_of = dict(zip(bundle.order, bundle.payload_at))
        bundle.position_of = {node_id: i for i, node_id in enumerate(bundle.order)}
        bundle.tree = tree
        bundle.build_seconds = 0.0
        return bundle

    def section_for(self, node_ids) -> TreeSection:
        """ΓS + ΓT section disclosing Φ for *node_ids*."""
        position_of = self.position_of
        positions = sorted({position_of[n] for n in node_ids})
        payload_at = self.payload_at
        payloads = [payload_at[p] for p in positions]
        entries = self.tree.prove(positions)
        return TreeSection(NETWORK_TREE, positions, payloads, entries)

    def refresh_node(self, node_id: int) -> None:
        """Re-encode Φ(node_id) and update its Merkle leaf in place.

        Called by owner-side incremental updates after the node's
        adjacency changed; the caller must re-sign the new root.
        """
        payload = self._tuple_factory(node_id).encode()
        position = self.position_of[node_id]
        self.payload_of[node_id] = payload
        self.payload_at[position] = payload
        self.tree.update_leaf(position, payload)

    def set_tuple_factory(self, tuple_factory: Callable[[int], BaseTuple]) -> None:
        """Swap the Φ encoder (e.g. after HYP's border flags changed)."""
        self._tuple_factory = tuple_factory

    def refresh_nodes(self, node_ids) -> int:
        """Re-encode Φ for *node_ids* and refresh the tree where changed.

        Returns the changed leaf count.  Payloads are compared before
        hashing, so passing a superset of the truly affected nodes only
        costs the re-encode.
        """
        return self.refresh_payloads({
            node_id: self._tuple_factory(node_id).encode()
            for node_id in sorted(set(node_ids))
        })

    def refresh_payloads(self, payloads) -> int:
        """Install pre-encoded Φ payloads and patch the tree where changed.

        ``payloads`` maps node id to its (canonical) encoding — batch
        encoders hand their output straight in here.  Unchanged
        payloads are skipped; returns how many leaves changed.
        """
        changed: dict[int, bytes] = {}
        payload_at = self.payload_at
        for node_id in sorted(payloads):
            payload = payloads[node_id]
            position = self.position_of[node_id]
            if payload_at[position] == payload:
                continue
            payload_at[position] = payload
            self.payload_of[node_id] = payload
            changed[position] = payload
        self.tree.update_leaves(changed)
        return len(changed)


def sign_descriptor(descriptor: SignedDescriptor, signer: Signer) -> SignedDescriptor:
    """Owner signs the descriptor message."""
    return descriptor.with_signature(signer.sign(descriptor.message()))


def resign_descriptor(
    old: SignedDescriptor,
    signer: Signer,
    *,
    trees,
    version: int,
    params: "bytes | None" = None,
) -> SignedDescriptor:
    """Re-sign a descriptor after an incremental update.

    Carries over the method identity and hash choice; the caller
    supplies the refreshed ADS shapes/roots, the new graph version and
    (when the signed parameters themselves changed, as for LDM's λ)
    the new params blob.
    """
    return sign_descriptor(
        SignedDescriptor(
            method=old.method,
            hash_name=old.hash_name,
            params=old.params if params is None else params,
            trees=tuple(trees),
            version=version,
        ),
        signer,
    )
