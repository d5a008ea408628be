"""Batch proofs: k query answers under one Merkle multiproof per tree.

A navigation provider answers bursts of queries from the same client
(e.g. a delivery fleet's morning dispatch).  Nearby queries disclose
overlapping leaf sets and share most of their Merkle covers, so a BATCH
reply ships each tree's union disclosure once under the union's cover
(:class:`MultiProofBatch`).  Each query keeps its exact leaf set.

The client checks the batch in the paper's two steps, the first of them
once (:func:`verify_batch`): it authenticates the union — the owner
signature, then every shared root rebuilt from the union disclosure —
and then checks each query's shortest path claim on its own leaves, the
payloads its standalone reply would carry, with its method's
``decode_proof`` and ``check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api import codes
from repro.core.checks import verify_descriptor, verify_section_root
from repro.core.framework import VerificationResult
from repro.core.method import SignatureVerifier, VerificationMethod, get_method
from repro.core.proofs import QueryResponse, SignedDescriptor, TreeSection
from repro.encoding import Decoder, Encoder
from repro.errors import EncodingError, MethodError
from repro.merkle.multiproof import merge_entries
from repro.merkle.proof import decode_proof_entries, encode_proof_entries


@dataclass
class MultiProofBatch:
    """k query answers sharing one Merkle multiproof per ADS.

    The batch keeps each query's exact disclosure set
    (``query_positions``) and ships the deduplicated union material once
    per tree: the union's payloads under the union's one canonical
    cover.  A query's own leaves are exactly the payloads of its
    standalone reply, so *every* method's per-query check applies,
    FULL's exactly-one-distance-tuple check included.
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
            trees: dict[str, tuple[int, ...]] = {}
            for _ in range(dec.read_count(2)):
                name = dec.read_str()
                if name in trees:
                    raise EncodingError(f"query lists section {name!r} twice")
                trees[name] = tuple(dec.read_uint_seq())
            query_positions.append(tuple(trees.items()))
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
    methods or descriptor versions, payload conflicts.  Responses one
    server answered under one hold of its update gate never do.
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


def verify_batch(
    data: bytes,
    queries: "Sequence[tuple[int, int]]",
    verify_signature: SignatureVerifier,
    *,
    min_version: "int | None" = None,
) -> "list[tuple[VerificationResult, tuple | None]]":
    """Verify an encoded :class:`MultiProofBatch` answering *queries*.

    The union is authenticated once: the descriptor (method, owner
    signature, freshness floor ``min_version``) and every shared tree's
    root, rebuilt from the union disclosure under its canonical cover.
    Then each query is checked on its own leaves.  Returns, per query in
    order, the verdict and the ``(path_nodes, path_cost)`` the batch
    reported for it (``None`` when the blob does not decode or answers
    other queries).  The blob is untrusted input: every malformation is
    a verdict, never an exception.
    """
    try:
        batch = MultiProofBatch.decode(data)
        if batch.queries != tuple(queries):
            raise EncodingError(
                f"it answers {list(batch.queries)} for the ok slots' "
                f"queries {list(queries)}")
    except EncodingError as exc:
        failure = VerificationResult.failure(
            codes.MALFORMED_PROOF, f"shared multiproof rejected: {exc}")
        return [(failure, None)] * len(queries)
    paths = list(zip(batch.paths, batch.costs))
    try:
        cls = get_method(batch.method)
    except MethodError:
        failure = VerificationResult.failure(
            codes.UNKNOWN_METHOD, f"method {batch.method!r} is not recognized")
        return [(failure, path) for path in paths]
    failure = verify_descriptor(cls.name, batch, verify_signature,
                                min_version=min_version)
    for section in batch.shared.values():
        if failure is None:
            failure = verify_section_root(batch.descriptor, section)
    if failure is not None:
        return [(failure, path) for path in paths]
    leaves = {name: section.leaf_map() for name, section in batch.shared.items()}
    return [(_check_query(cls, batch, leaves, index), path)
            for index, path in enumerate(paths)]


def _check_query(cls: "type[VerificationMethod]", batch: MultiProofBatch,
                 leaves: "dict[str, dict[int, bytes]]",
                 index: int) -> VerificationResult:
    """Query *index*'s claim, on its own leaves of the authenticated union."""
    source, target = batch.queries[index]
    try:
        sections = {}
        for name, positions in batch.query_positions[index]:
            payload_of = leaves.get(name)
            if payload_of is None:
                raise EncodingError(
                    f"query {index} references missing shared section {name!r}")
            try:
                payloads = [payload_of[p] for p in positions]
            except KeyError as exc:
                raise EncodingError(
                    f"section {name!r}: query {index} references leaf "
                    f"{exc.args[0]} outside the shared disclosure") from None
            sections[name] = TreeSection(name, list(positions), payloads)
        response = QueryResponse(batch.method, source, target,
                                 batch.paths[index], batch.costs[index],
                                 sections, batch.descriptor)
        proof = cls.decode_proof(response)
    except EncodingError as exc:
        return VerificationResult.failure(codes.MALFORMED_PROOF, str(exc))
    return cls.check(source, target, response, proof)
