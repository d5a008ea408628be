"""Composite responses: per-shard sub-path proofs stitched at junctions.

A cross-shard query is answered as an ordered list of **segments**.
Segment *i* is one complete, independently verifiable
:class:`~repro.core.proofs.QueryResponse` from one shard: it starts at
the previous junction (or the query source), runs through that shard's
territory, and ends at the next junction — a declared boundary node
owned by the *following* segment's shard, reached over a cut edge that
both shards' graphs carry.

Why stitching is sound: a subpath of a shortest path is itself a
shortest path, and every segment of the global optimum lies entirely
inside its shard's core+halo graph (see
:mod:`repro.shard.partition`), so an honest shard's answer for the
segment pair verifies under the *unchanged* per-method machinery and
costs exactly the global segment cost.  The composite verifier
therefore only adds the cross-shard glue checks:

1. the manifest is owner-signed and fresh (once, cached by the client);
2. every segment's embedded descriptor matches the manifest's digest
   pin for its shard — which kills swapped roots and stale per-shard
   replays in one check;
3. every segment verifies as a standalone response for its chained
   ``(source, target)`` pair — signature, Merkle roots, path integrity,
   shard-local optimality;
4. junctions chain (segment *i* ends where segment *i+1* starts), each
   junction is a declared boundary node owned by the next segment's
   shard, and adjacent segments name different shards;
5. the concatenated segment paths equal the composite's claimed
   end-to-end path, repeat no node, and their costs sum to the claimed
   total.

**Trust model limit, stated plainly:** the verdict certifies that the
answer is a real path of the claimed cost whose every segment is
optimal *within its shard* and whose handoffs are owner-declared
junctions.  It does not certify that the router picked the globally
optimal junction sequence — that needs an authenticated cross-shard
distance directory (the HYP hyperedge idea lifted one level), which is
ROADMAP follow-up work, not a property this format quietly claims: an
accepted composite carries the reason ``shard-local-optimal``, never
the single-box ``ok``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import codes
from repro.core.framework import Client, VerificationResult, distances_close
from repro.core.proofs import QueryResponse
from repro.encoding import Decoder, Encoder
from repro.errors import EncodingError
from repro.shard.manifest import (
    ShardManifest,
    descriptor_digest,
    verify_manifest,
)

#: Composite layout version (additions ride at the tail, append-only,
#: exactly like the wire envelope's extension rule).
COMPOSITE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CompositeSegment:
    """One shard's contribution: who answered, and its response verbatim."""

    shard_id: int
    response_bytes: bytes


@dataclass(frozen=True)
class CompositeResponse:
    """A stitched cross-shard answer, as assembled by the router.

    ``path_nodes`` / ``path_cost`` are the claimed end-to-end result —
    exactly what a single-box response would report — and the segments
    are the evidence the claim is checked against.
    """

    source: int
    target: int
    path_nodes: tuple[int, ...]
    path_cost: float
    segments: tuple[CompositeSegment, ...]

    def encode(self) -> bytes:
        """Serialize for the envelope's ``composite`` field."""
        enc = Encoder()
        enc.write_uint(COMPOSITE_FORMAT_VERSION)
        enc.write_uint(self.source).write_uint(self.target)
        enc.write_uint_seq(self.path_nodes)
        enc.write_f64(self.path_cost)
        enc.write_uint(len(self.segments))
        for segment in self.segments:
            enc.write_uint(segment.shard_id)
            enc.write_bytes(segment.response_bytes)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "CompositeResponse":
        """Strict inverse of :meth:`encode` (EncodingError on defects)."""
        dec = Decoder(bytes(data))
        format_version = dec.read_uint()
        if format_version != COMPOSITE_FORMAT_VERSION:
            raise EncodingError(
                f"unsupported composite format version {format_version} "
                f"(this build speaks {COMPOSITE_FORMAT_VERSION})"
            )
        source = dec.read_uint()
        target = dec.read_uint()
        path_nodes = tuple(dec.read_uint_seq())
        path_cost = dec.read_f64()
        count = dec.read_count(2)
        if count < 2:
            raise EncodingError(
                f"a composite needs >= 2 segments, got {count} "
                f"(single-shard answers ride as plain replies)"
            )
        segments = tuple(
            CompositeSegment(dec.read_uint(), dec.read_bytes())
            for _ in range(count)
        )
        dec.expect_end()
        return cls(source, target, path_nodes, path_cost, segments)


def _failure(reason: str, detail: str) -> VerificationResult:
    return VerificationResult.failure(reason, detail)


def verify_composite(source: int, target: int, composite_bytes: bytes,
                     manifest: ShardManifest, verify_signature, *,
                     min_version: "int | None" = None,
                     manifest_verified: bool = False) -> VerificationResult:
    """Verify a stitched response end to end against a shard manifest.

    Everything is a verdict, never an exception: undecodable composite
    bytes, broken segments and glue violations all come back as typed
    :class:`~repro.core.framework.VerificationResult` failures.  Pass
    ``manifest_verified=True`` when the manifest's signature/freshness
    was already checked (a client verifies once per fetched manifest,
    not once per query).
    """
    if not manifest_verified:
        manifest_verdict = verify_manifest(manifest, verify_signature,
                                           min_version=min_version)
        if not manifest_verdict.ok:
            return manifest_verdict
    try:
        composite = CompositeResponse.decode(composite_bytes)
    except EncodingError as exc:
        return _failure(codes.MALFORMED_RESPONSE,
                        f"composite bytes do not decode: {exc}")
    if composite.source != source or composite.target != target:
        return _failure(
            codes.ENDPOINT_MISMATCH,
            f"composite answers ({composite.source}, {composite.target}) "
            f"for query ({source}, {target})",
        )

    # -- per-segment decode + digest pin -------------------------------
    responses: "list[QueryResponse]" = []
    for index, segment in enumerate(composite.segments):
        if not 0 <= segment.shard_id < manifest.num_shards:
            return _failure(
                codes.UNKNOWN_SHARD,
                f"segment {index} names shard {segment.shard_id}; the "
                f"manifest covers {manifest.num_shards} shards",
            )
        try:
            response = QueryResponse.decode(segment.response_bytes)
        except EncodingError as exc:
            return _failure(codes.MALFORMED_RESPONSE,
                            f"segment {index} does not decode: {exc}")
        entry = manifest.entries[segment.shard_id]
        digest = descriptor_digest(response.descriptor.encode())
        if digest != entry.descriptor_digest:
            return _failure(
                codes.SHARD_DESCRIPTOR_MISMATCH,
                f"segment {index}: descriptor digest {digest.hex()[:16]}… "
                f"is not what the manifest pins for shard "
                f"{segment.shard_id}",
            )
        if response.method != manifest.method:
            return _failure(
                codes.METHOD_MISMATCH,
                f"segment {index} speaks method {response.method!r}; the "
                f"manifest declares {manifest.method!r}",
            )
        if not response.path_nodes:
            return _failure(codes.EMPTY_PATH,
                            f"segment {index} reports no path")
        responses.append(response)

    # -- junction chaining ---------------------------------------------
    segments = composite.segments
    for index, response in enumerate(responses):
        expected_source = source if index == 0 \
            else responses[index - 1].path_nodes[-1]
        if response.path_nodes[0] != expected_source:
            return _failure(
                codes.JUNCTION_MISMATCH,
                f"segment {index} starts at {response.path_nodes[0]}, "
                f"expected {expected_source}",
            )
        own_entry = manifest.entries[segments[index].shard_id]
        if not own_entry.owns(response.path_nodes[0]):
            return _failure(
                codes.JUNCTION_MISMATCH,
                f"segment {index} starts at node "
                f"{response.path_nodes[0]}, which shard "
                f"{segments[index].shard_id} does not own",
            )
        last = index == len(responses) - 1
        junction = response.path_nodes[-1]
        if last:
            if junction != target:
                return _failure(
                    codes.JUNCTION_MISMATCH,
                    f"final segment ends at {junction}, not the query "
                    f"target {target}",
                )
            continue
        next_shard = segments[index + 1].shard_id
        if next_shard == segments[index].shard_id:
            return _failure(
                codes.JUNCTION_MISMATCH,
                f"segments {index} and {index + 1} both name shard "
                f"{next_shard}; a stitch must cross shards",
            )
        next_entry = manifest.entries[next_shard]
        if not next_entry.owns(junction):
            return _failure(
                codes.JUNCTION_MISMATCH,
                f"junction {junction} after segment {index} is not owned "
                f"by shard {next_shard}",
            )
        if not next_entry.is_boundary(junction):
            return _failure(
                codes.JUNCTION_MISMATCH,
                f"junction {junction} is not a declared boundary node of "
                f"shard {next_shard}",
            )

    # -- the stitched claim --------------------------------------------
    stitched: "list[int]" = list(responses[0].path_nodes)
    for response in responses[1:]:
        stitched.extend(response.path_nodes[1:])
    if tuple(stitched) != composite.path_nodes:
        return _failure(
            codes.STITCH_MISMATCH,
            f"concatenated segment paths ({len(stitched)} nodes) disagree "
            f"with the claimed end-to-end path "
            f"({len(composite.path_nodes)} nodes)",
        )
    if len(set(stitched)) != len(stitched):
        return _failure(codes.PATH_CYCLE,
                        "stitched path repeats a node across segments")
    total = sum(response.path_cost for response in responses)
    if not distances_close(total, composite.path_cost):
        return _failure(
            codes.COST_MISMATCH,
            f"segment costs sum to {total!r}, composite claims "
            f"{composite.path_cost!r}",
        )

    # -- full per-segment verification (signature, roots, optimality) --
    checker = Client(verify_signature, min_descriptor_version=min_version)
    for index, (segment, response) in enumerate(zip(segments, responses)):
        seg_source = response.path_nodes[0]
        seg_target = response.path_nodes[-1]
        verdict = checker.verify_bytes(seg_source, seg_target,
                                       segment.response_bytes)
        if not verdict.ok:
            return _failure(
                verdict.reason,
                f"segment {index} (shard {segment.shard_id}): "
                f"{verdict.detail}",
            )
    return VerificationResult(
        ok=True, reason=codes.SHARD_LOCAL_OPTIMAL,
        detail="each segment is optimal within its shard; the junction "
               "choice is not certified")
