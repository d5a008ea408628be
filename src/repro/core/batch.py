"""Batch proofs: k query answers under one Merkle multiproof per tree.

A navigation provider answers bursts of queries from the same client
(e.g. a delivery fleet's morning dispatch).  Nearby queries disclose
overlapping leaf sets and share most of their Merkle covers, so a BATCH
reply ships each tree's union disclosure once under the union's cover
(:class:`MultiProofBatch`).  Each query keeps its exact leaf set, and
the client expands the batch back into standalone responses
(:func:`recover_responses`) that the unchanged per-query ``verify``
checks — for every method.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.proofs import QueryResponse, SignedDescriptor, TreeSection
from repro.encoding import Decoder, Encoder
from repro.errors import EncodingError, MethodError
from repro.merkle.multiproof import expand_multi, merge_entries
from repro.merkle.proof import decode_proof_entries, encode_proof_entries


@dataclass
class MultiProofBatch:
    """k query answers sharing one Merkle multiproof per ADS.

    The batch keeps each query's exact disclosure set
    (``query_positions``) and ships the deduplicated union material once
    per tree.  The client expands it back into per-query standalone
    responses that are byte-identical to independently served ones
    (:func:`~repro.merkle.multiproof.expand_multi`), so *every* method's
    unchanged per-query ``verify`` applies, FULL's exactly-one-distance-
    tuple check included.
    """

    method: str
    queries: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...]
    #: Per query: ``((tree name, leaf positions), ...)`` sorted by name.
    query_positions: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]
    #: Per tree name: the union disclosure under one shared cover.
    shared: dict[str, TreeSection]
    descriptor: SignedDescriptor

    # -- wire format ----------------------------------------------------
    def encode(self) -> bytes:
        """Serialize (the ground truth for size accounting)."""
        enc = Encoder()
        enc.write_str(self.method)
        enc.write_uint(len(self.queries))
        for index, ((vs, vt), path, cost) in enumerate(
                zip(self.queries, self.paths, self.costs)):
            enc.write_uint(vs).write_uint(vt)
            enc.write_uint_seq(path)
            enc.write_f64(cost)
            trees = self.query_positions[index]
            enc.write_uint(len(trees))
            for name, positions in trees:
                enc.write_str(name)
                enc.write_uint_seq(positions)
        enc.write_uint(len(self.shared))
        for name in sorted(self.shared):
            section = self.shared[name]
            enc.write_str(name)
            enc.write_uint_seq(section.positions)
            enc.write_bytes_seq(section.payloads)
            encode_proof_entries(section.entries, enc)
        enc.write_bytes(self.descriptor.encode())
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "MultiProofBatch":
        """Inverse of :meth:`encode`.

        Strict like :meth:`QueryResponse.decode`: the blob arrives from
        an untrusted provider, so every malformation raises a typed
        :class:`~repro.errors.EncodingError`.
        """
        dec = Decoder(bytes(data))
        method = dec.read_str()
        queries = []
        paths = []
        costs = []
        query_positions = []
        # A query occupies at least 12 bytes (vs, vt, path count, eight
        # cost bytes, tree count).
        for _ in range(dec.read_count(12)):
            queries.append((dec.read_uint(), dec.read_uint()))
            paths.append(tuple(dec.read_uint_seq()))
            costs.append(dec.read_f64())
            trees = []
            for _ in range(dec.read_count(2)):
                trees.append((dec.read_str(), tuple(dec.read_uint_seq())))
            query_positions.append(tuple(trees))
        shared: dict[str, TreeSection] = {}
        for _ in range(dec.read_count(4)):
            name = dec.read_str()
            positions = dec.read_uint_seq()
            payloads = dec.read_bytes_seq()
            entries = decode_proof_entries(dec)
            if name in shared:
                raise EncodingError(f"duplicate shared section {name!r}")
            shared[name] = TreeSection(name, positions, payloads, entries)
        descriptor = SignedDescriptor.decode(dec.read_bytes())
        dec.expect_end()
        return cls(method, tuple(queries), tuple(paths), tuple(costs),
                   tuple(query_positions), shared, descriptor)

    @property
    def total_bytes(self) -> int:
        """Wire size of the whole batch."""
        return len(self.encode())


def combine_multiproof(
    queries: "list[tuple[int, int]]",
    responses: "list[QueryResponse]",
) -> MultiProofBatch:
    """Fold already-served standalone responses into one multiproof batch.

    Works purely from the responses — no tree access — because the
    union cover is a subset of the union of the per-query covers
    (:func:`~repro.merkle.multiproof.merge_entries`).  That makes it
    usable by any serving layer holding (possibly cached) responses,
    for every method, artifact-loaded ones included.

    Raises :class:`MethodError` when the responses disagree — different
    methods or descriptor versions, payload conflicts — in which case
    the caller falls back to independent responses.
    """
    if not queries:
        raise MethodError("empty query batch")
    if len(queries) != len(responses):
        raise MethodError(
            f"{len(queries)} queries vs {len(responses)} responses"
        )
    first = responses[0]
    for (vs, vt), response in zip(queries, responses):
        if (response.source, response.target) != (vs, vt):
            raise MethodError(
                f"response for ({response.source}, {response.target}) "
                f"does not answer query ({vs}, {vt})"
            )
        if response.method != first.method:
            raise MethodError(
                f"mixed methods in batch: {first.method} vs {response.method}"
            )
        if response.descriptor != first.descriptor:
            raise MethodError(
                "responses span different descriptor versions; "
                "cannot share one multiproof"
            )
    descriptor = first.descriptor

    union_positions: dict[str, set] = {}
    payload_at: dict[str, dict[int, bytes]] = {}
    pooled: dict[str, dict[tuple[int, int], bytes]] = {}
    for response in responses:
        for name, section in response.sections.items():
            positions = union_positions.setdefault(name, set())
            payloads = payload_at.setdefault(name, {})
            digests = pooled.setdefault(name, {})
            positions.update(section.positions)
            for position, payload in zip(section.positions, section.payloads):
                known = payloads.get(position)
                if known is not None and known != payload:
                    raise MethodError(
                        f"section {name!r}: conflicting payloads for "
                        f"leaf {position}"
                    )
                payloads[position] = payload
            for entry in section.entries:
                digests[(entry.level, entry.index)] = entry.digest

    shared: dict[str, TreeSection] = {}
    for name, positions in union_positions.items():
        config = descriptor.tree(name)
        union = sorted(positions)
        entries = merge_entries(config.num_leaves, config.fanout,
                                union, pooled[name])
        shared[name] = TreeSection(
            name, union, [payload_at[name][p] for p in union], entries)

    return MultiProofBatch(
        method=first.method,
        queries=tuple(queries),
        paths=tuple(r.path_nodes for r in responses),
        costs=tuple(r.path_cost for r in responses),
        query_positions=tuple(
            tuple((name, tuple(r.sections[name].positions))
                  for name in sorted(r.sections))
            for r in responses
        ),
        shared=shared,
        descriptor=descriptor,
    )


def recover_responses(batch: MultiProofBatch) -> "list[QueryResponse]":
    """Expand a multiproof batch back into standalone responses.

    The client-side inverse of :func:`combine_multiproof`: for each
    tree, the union reconstruction recovers every digest any per-query
    cover needs, and each query gets its exact section back — on an
    honest batch, byte-identical to the independently served response,
    so the per-query ``verify`` path downstream is unchanged.  Tampered
    payloads or shared digests flow into wrong recovered roots and fail
    verification there; *structural* damage (missing digests, covers
    that cannot be recovered) raises a typed
    :class:`~repro.errors.MerkleError` here.
    """
    descriptor = batch.descriptor
    count = len(batch.queries)
    if not (len(batch.paths) == len(batch.costs)
            == len(batch.query_positions) == count):
        raise MethodError("multiproof batch arrays disagree in length")

    # Per tree: which queries disclose it, and with which leaf sets.
    covers_for: dict[str, dict[int, list]] = {}
    for name, section in batch.shared.items():
        users: list[int] = []
        leaf_sets: list[tuple[int, ...]] = []
        for index in range(count):
            for tree_name, positions in batch.query_positions[index]:
                if tree_name == name:
                    users.append(index)
                    leaf_sets.append(positions)
        if not users:
            continue
        config = descriptor.tree(name)
        _root, covers = expand_multi(
            config.num_leaves, config.fanout, descriptor.hash_name,
            section.leaf_map(), section.entries, leaf_sets)
        covers_for[name] = dict(zip(users, covers))

    responses: list[QueryResponse] = []
    for index in range(count):
        vs, vt = batch.queries[index]
        sections: dict[str, TreeSection] = {}
        for name, positions in batch.query_positions[index]:
            shared = batch.shared.get(name)
            if shared is None:
                raise MethodError(
                    f"query {index} references missing shared section {name!r}"
                )
            payload_of = shared.leaf_map()
            try:
                payloads = [payload_of[p] for p in positions]
            except KeyError as exc:
                raise MethodError(
                    f"section {name!r}: query {index} references leaf "
                    f"{exc.args[0]} outside the shared disclosure"
                ) from None
            sections[name] = TreeSection(
                name, list(positions), payloads, covers_for[name][index])
        responses.append(QueryResponse(
            method=batch.method,
            source=vs,
            target=vt,
            path_nodes=batch.paths[index],
            path_cost=batch.costs[index],
            sections=sections,
            descriptor=descriptor,
        ))
    return responses

