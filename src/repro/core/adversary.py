"""Malicious service provider models.

Each function takes an honest setup (a built method) or an honest
response and produces a *tampered* response exercising one attack from
the paper's threat model.  Used by the test suite and the
``malicious_server`` example to demonstrate that every attack is
rejected by client verification.

Attacks
-------
``suboptimal_path``
    Report a genuine but longer path, with proofs generated around it
    (the "profit-motivated provider" scenario).
``tamper_weight``
    Rewrite an edge weight inside a disclosed tuple without updating
    the Merkle material (the "compromised server" scenario).
``drop_tuple``
    Remove one tuple from ΓS and patch ΓT with its digest so the root
    still reconstructs — the exact attack §IV-A warns about.
``forge_distance``
    Rewrite the FULL/HYP distance tuple's value.
``strip_signature`` / ``wrong_target``
    Protocol-level mangling.
``replay_stale_root``
    Freshness attack: replay a response whose descriptor was signed
    before an owner update.  Every byte is authentic — only version
    pinning (the client's ``min_version`` freshness floor) catches it.
"""

from __future__ import annotations

import copy

from repro.core.method import VerificationMethod
from repro.core.proofs import DISTANCE_TREE, NETWORK_TREE, QueryResponse
from repro.crypto.hashing import get_hash
from repro.encoding import Decoder, Encoder
from repro.errors import MethodError
from repro.graph.graph import SpatialGraph
from repro.graph.tuples import BaseTuple
from repro.merkle.proof import MerkleProofEntry
from repro.merkle.tree import leaf_digest
from repro.shortestpath.kernel import indexed_search, indexed_shortest_path
from repro.shortestpath.path import Path


def suboptimal_path(method: VerificationMethod, graph: SpatialGraph,
                    source: int, target: int) -> QueryResponse:
    """Answer with a genuine but non-shortest path, proofs included.

    The detour is found by deleting one edge of the true shortest path
    and re-searching; the provider then builds its proofs around the
    longer path, exactly as a profit-motivated provider would.
    Raises :class:`MethodError` if the network offers no detour.
    """
    honest = indexed_shortest_path(graph.to_index(), source, target)
    if honest.num_edges == 0:
        raise MethodError("degenerate query: source equals target")
    working = graph.copy()
    for u, v in honest.edges():
        working.remove_edge(u, v)
        alt = indexed_search(working.to_index(), source, target)
        working.add_edge(u, v, graph.weight(u, v))
        cost = alt.dist_of(target)
        if cost is not None and cost > honest.cost * (1 + 1e-9):
            detour_nodes = alt.path_to(target).nodes
            detour = Path.from_nodes(graph, detour_nodes)
            return method.answer(source, target, forced_path=detour)
    raise MethodError(
        f"no strictly longer alternative path between {source} and {target}"
    )


def _rewrite_first_adjacency_weight(payload: bytes, delta: float) -> bytes:
    """Decode a tuple payload, perturb its first edge weight, re-encode.

    Works for every tuple flavor because the adjacency block is shared:
    the payload prefix up to the adjacency list is copied verbatim.
    """
    dec = Decoder(payload)
    node_id = dec.read_uint()
    x = dec.read_f64()
    y = dec.read_f64()
    count = dec.read_uint()
    if count == 0:
        raise MethodError(f"node {node_id} has no edges to tamper with")
    adjacency = [(dec.read_uint(), dec.read_f64()) for _ in range(count)]
    tail = dec.read_raw(dec.remaining)
    adjacency[0] = (adjacency[0][0], adjacency[0][1] + delta)
    enc = Encoder()
    enc.write_uint(node_id).write_f64(x).write_f64(y)
    enc.write_uint(count)
    for nbr, w in adjacency:
        enc.write_uint(nbr).write_f64(w)
    enc.write_raw(tail)
    return enc.getvalue()


def tamper_weight(response: QueryResponse, *, delta: float = 1.0) -> QueryResponse:
    """Corrupt one edge weight in the first disclosed network tuple."""
    tampered = copy.deepcopy(response)
    section = tampered.section(NETWORK_TREE)
    for i, payload in enumerate(section.payloads):
        try:
            section.payloads[i] = _rewrite_first_adjacency_weight(payload, delta)
            return tampered
        except MethodError:
            continue
    raise MethodError("no tuple with edges found to tamper with")


def drop_tuple(response: QueryResponse, *, keep: "set[int] | None" = None) -> QueryResponse:
    """§IV-A attack: remove a ΓS tuple, patch ΓT with its digest.

    The Merkle root still reconstructs, so only the shortest-path
    validity check can catch this.  ``keep`` lists node ids that must
    stay (by default the reported path, so the attack targets the
    search's evidence rather than the path itself).
    """
    tampered = copy.deepcopy(response)
    section = tampered.section(NETWORK_TREE)
    keep = set(response.path_nodes) if keep is None else keep
    hash_fn = get_hash(response.descriptor.hash_name)
    fanout = response.descriptor.tree(NETWORK_TREE).fanout
    positions = set(section.positions)
    for i, payload in enumerate(section.payloads):
        node_id = BaseTuple._decode_header(Decoder(payload))[0]
        if node_id in keep:
            continue
        position = section.positions[i]
        # The patched ΓT must stay structurally canonical: after removal
        # the Merkle cover emits the bare leaf digest only when another
        # leaf of the same sibling group is still disclosed.
        group = range((position // fanout) * fanout, (position // fanout + 1) * fanout)
        if not any(p in positions and p != position for p in group):
            continue
        digest = leaf_digest(payload, hash_fn)
        del section.positions[i]
        del section.payloads[i]
        section.entries.append(MerkleProofEntry(0, position, digest))
        return tampered
    raise MethodError("no droppable tuple with a disclosed sibling leaf")


def forge_distance(response: QueryResponse, *, delta: float = -1.0) -> QueryResponse:
    """Rewrite the value inside the first disclosed distance tuple."""
    tampered = copy.deepcopy(response)
    section = tampered.section(DISTANCE_TREE)
    dec = Decoder(section.payloads[0])
    a = dec.read_uint()
    b = dec.read_uint()
    dist = dec.read_f64()
    enc = Encoder().write_uint(a).write_uint(b).write_f64(dist + delta)
    section.payloads[0] = enc.getvalue()
    return tampered


def strip_signature(response: QueryResponse) -> QueryResponse:
    """Replace the descriptor signature with zeros."""
    tampered = copy.deepcopy(response)
    descriptor = tampered.descriptor
    tampered.descriptor = descriptor.with_signature(b"\x00" * len(descriptor.signature))
    return tampered


def inflate_cost(response: QueryResponse, *, factor: float = 1.5) -> QueryResponse:
    """Claim a larger path cost without changing anything else."""
    tampered = copy.deepcopy(response)
    tampered.path_cost = response.path_cost * factor
    return tampered


def replay_stale_root(stale_response: QueryResponse) -> QueryResponse:
    """Freshness attack: replay a pre-update response verbatim.

    The provider answers today's query with a proof generated before
    the owner's last update — perhaps the update re-priced the road the
    provider profits from.  Everything in the replayed response is
    *authentic*: the tuples match the old Merkle roots and the old
    descriptor carries a genuine owner signature, so tamper detection
    cannot reject it.  What gives it away is the descriptor's signed
    ``version``: a client that pins the owner's current version (the
    ``min_version`` freshness floor, distributed out of band like the
    public key) rejects the replay with ``stale-descriptor``.
    """
    return copy.deepcopy(stale_response)
