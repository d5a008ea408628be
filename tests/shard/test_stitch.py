"""Composite verification and the cross-shard adversary battery.

Every mutation here must come back as a *typed* verdict — a
``VerificationResult`` whose reason is a registered code — never an
untyped exception escaping ``verify_composite``.
"""

from __future__ import annotations

import dataclasses

from repro.api import codes
from repro.core.framework import distances_close
from repro.errors import ReproError
from repro.shard import (
    CompositeResponse,
    CompositeSegment,
    build_shards,
    verify_composite,
)
from repro.shortestpath.kernel import indexed_shortest_path

from repro.crypto.signer import NullSigner

# The package ``signer`` fixture is a default-keyed NullSigner; any
# default instance verifies what it signed.
_OWNER = NullSigner()


def _verify(case, composite_bytes, *, manifest=None, source=None,
            target=None, **kwargs):
    return verify_composite(
        case.source if source is None else source,
        case.target if target is None else target,
        composite_bytes,
        case.manifest if manifest is None else manifest,
        _OWNER.verify,
        **kwargs,
    )


def _expect(case, composite_bytes, reason, **kwargs):
    verdict = _verify(case, composite_bytes, **kwargs)
    assert not verdict.ok, "mutation unexpectedly verified"
    assert verdict.reason == reason, \
        f"expected {reason}, got {verdict.reason}: {verdict.detail}"
    assert verdict.reason in codes.VERIFICATION_REASONS
    return verdict


class TestHonestComposite:
    def test_roundtrip(self, case):
        blob = case.composite.encode()
        again = CompositeResponse.decode(blob)
        assert again == case.composite

    def test_verifies_end_to_end(self, case):
        verdict = _verify(case, case.composite.encode())
        assert verdict.ok, f"{verdict.reason}: {verdict.detail}"

    def test_cost_matches_single_box(self, case):
        """Acceptance: the stitched cost equals the unsharded answer."""
        path = indexed_shortest_path(case.graph.to_index(), case.source,
                                     case.target)
        assert distances_close(case.composite.path_cost, path.cost)
        assert case.composite.path_nodes == path.nodes

    def test_manifest_verified_skip_still_checks_segments(self, case):
        verdict = _verify(case, case.composite.encode(),
                          manifest_verified=True)
        assert verdict.ok

    def test_verdict_is_the_weaker_shard_local_one(self, case):
        """An accepted composite never reads as the single-box ``ok``."""
        verdict = _verify(case, case.composite.encode())
        assert verdict.ok
        assert verdict.reason == codes.SHARD_LOCAL_OPTIMAL != codes.OK
        assert codes.SHARD_LOCAL_OPTIMAL in codes.VERIFICATION_REASONS


class TestMalformedComposite:
    def test_garbage_bytes(self, case):
        _expect(case, b"not a composite at all",
                codes.MALFORMED_RESPONSE)

    def test_truncation(self, case):
        blob = case.composite.encode()
        _expect(case, blob[: len(blob) // 2], codes.MALFORMED_RESPONSE)

    def test_single_segment_rejected(self, case):
        lone = dataclasses.replace(case.composite,
                                   segments=case.composite.segments[:1])
        _expect(case, lone.encode(), codes.MALFORMED_RESPONSE)

    def test_endpoint_mismatch(self, case):
        _expect(case, case.composite.encode(), codes.ENDPOINT_MISMATCH,
                source=case.target, target=case.source)


class TestAdversaryBattery:
    def test_tampered_segment_proof(self, case):
        """Flip one byte deep inside a segment's response: the per-shard
        signature (or its Merkle pins) must catch it."""
        victim = case.composite.segments[0]
        raw = bytearray(victim.response_bytes)
        raw[-1] ^= 0x01
        segments = (CompositeSegment(victim.shard_id, bytes(raw)),) + \
            case.composite.segments[1:]
        mutated = dataclasses.replace(case.composite, segments=segments)
        verdict = _verify(case, mutated.encode())
        assert not verdict.ok
        assert verdict.reason in codes.VERIFICATION_REASONS

    def test_swapped_shard_roots(self, case):
        """Claim segment 0 came from segment 1's shard: the manifest's
        digest pin for that shard no longer matches."""
        first, second = case.composite.segments[0], case.composite.segments[1]
        segments = (CompositeSegment(second.shard_id, first.response_bytes),
                    CompositeSegment(first.shard_id, second.response_bytes),
                    ) + case.composite.segments[2:]
        mutated = dataclasses.replace(case.composite, segments=segments)
        _expect(case, mutated.encode(), codes.SHARD_DESCRIPTOR_MISMATCH)

    def test_swapped_response_bytes(self, case):
        first, second = case.composite.segments[0], case.composite.segments[1]
        segments = (CompositeSegment(first.shard_id, second.response_bytes),
                    CompositeSegment(second.shard_id, first.response_bytes),
                    ) + case.composite.segments[2:]
        mutated = dataclasses.replace(case.composite, segments=segments)
        _expect(case, mutated.encode(), codes.SHARD_DESCRIPTOR_MISMATCH)

    def test_unknown_shard_id(self, case):
        victim = case.composite.segments[0]
        segments = (CompositeSegment(99, victim.response_bytes),) + \
            case.composite.segments[1:]
        mutated = dataclasses.replace(case.composite, segments=segments)
        _expect(case, mutated.encode(), codes.UNKNOWN_SHARD)

    def test_junction_not_declared_boundary(self, case):
        """Strip the boundary declarations from the manifest: the honest
        junction is suddenly illegal, so the stitch must be refused.
        (``manifest_verified=True`` models a forged-but-accepted map;
        with a real signature check the strip itself already fails.)"""
        stripped = dataclasses.replace(
            case.manifest,
            entries=tuple(dataclasses.replace(entry, boundary=())
                          for entry in case.manifest.entries),
        )
        _expect(case, case.composite.encode(), codes.JUNCTION_MISMATCH,
                manifest=stripped, manifest_verified=True)

    def test_adjacent_segments_same_shard(self, case):
        """An intra-shard answer split in two must not masquerade as a
        cross-shard stitch."""
        shard_id = case.composite.segments[0].shard_id
        members = case.build.plan.members[shard_id]
        a, b, c = members[0], members[len(members) // 2], members[-1]
        provider = case.providers[shard_id]
        r1, r2 = provider.answer(a, b), provider.answer(b, c)
        stitched = r1.path_nodes + r2.path_nodes[1:]
        fake = CompositeResponse(
            a, c, stitched, r1.path_cost + r2.path_cost,
            (CompositeSegment(shard_id, r1.encode()),
             CompositeSegment(shard_id, r2.encode())),
        )
        _expect(case, fake.encode(), codes.JUNCTION_MISMATCH,
                source=a, target=c)

    def test_stale_descriptor_replayed_among_fresh(self, case, road300,
                                                   signer, composite_maker):
        """Rebuild after a weight change, then smuggle one pre-update
        segment in next to fresh ones: the fresh manifest's digest pin
        must reject the stale shard descriptor."""
        mutated_graph = road300.copy()
        u, v, w = next(iter(mutated_graph.edges()))
        mutated_graph.update_edge_weight(u, v, w * 2.0)
        fresh = build_shards(mutated_graph, signer,
                             num_shards=case.build.plan.num_shards)
        assert fresh.manifest.version > case.manifest.version
        from repro.core.framework import ServiceProvider
        fresh_providers = [ServiceProvider(m) for m in fresh.methods]
        replayed = composite_maker(fresh_providers, case.segments)
        stale = case.composite.segments[0]
        segments = (stale,) + replayed.segments[1:]
        mutated = dataclasses.replace(replayed, segments=segments)
        _expect(case, mutated.encode(), codes.SHARD_DESCRIPTOR_MISMATCH,
                manifest=fresh.manifest)

    def test_inflated_total_cost(self, case):
        mutated = dataclasses.replace(case.composite,
                                      path_cost=case.composite.path_cost * 1.1)
        _expect(case, mutated.encode(), codes.COST_MISMATCH)

    def test_altered_claimed_path(self, case):
        nodes = list(case.composite.path_nodes)
        nodes[len(nodes) // 2], nodes[-1] = nodes[-1], nodes[len(nodes) // 2]
        mutated = dataclasses.replace(case.composite,
                                      path_nodes=tuple(nodes))
        _expect(case, mutated.encode(), codes.STITCH_MISMATCH)

    def test_cycle_over_cut_edge(self, case):
        """u -> v -> u across a cut edge chains perfectly at the junction
        but repeats a node: PATH_CYCLE, not an infinite loop."""
        plan = case.build.plan
        u, v, _ = plan.cut_edges[0]
        su, sv = plan.shard_of(u), plan.shard_of(v)
        r1 = case.providers[su].answer(u, v)
        r2 = case.providers[sv].answer(v, u)
        stitched = r1.path_nodes + r2.path_nodes[1:]
        fake = CompositeResponse(
            u, u, stitched, r1.path_cost + r2.path_cost,
            (CompositeSegment(su, r1.encode()),
             CompositeSegment(sv, r2.encode())),
        )
        _expect(case, fake.encode(), codes.PATH_CYCLE,
                source=u, target=u)

    def test_valid_but_suboptimal_junction(self, case, composite_maker):
        """The known gap: a router may hand off at a declared junction
        that is off the shortest path.  Every segment is still optimal
        in its shard, so the composite is accepted, but only with the
        weaker verdict."""
        (first, source, _), *_ = case.segments
        last, target = case.segments[-1][0], case.target
        best = case.composite.path_cost
        entry = case.manifest.entries[last]
        for junction in entry.boundary:
            if not case.build.methods[first].graph.has_node(junction):
                continue
            try:
                segments = [(first, source, junction), (last, junction, target)]
                detour = composite_maker(case.providers, segments)
            except ReproError:
                continue  # no route inside one of the shards
            if detour.path_cost <= best + 1e-6 or \
                    len(set(detour.path_nodes)) != len(detour.path_nodes):
                continue
            verdict = _verify(case, detour.encode())
            assert verdict.ok, (verdict.reason, verdict.detail)
            assert verdict.reason == codes.SHARD_LOCAL_OPTIMAL
            return
        raise AssertionError("no valid suboptimal junction found")

    def test_all_battery_reasons_are_registered(self):
        for reason in (codes.MALFORMED_RESPONSE, codes.ENDPOINT_MISMATCH,
                       codes.UNKNOWN_SHARD, codes.SHARD_DESCRIPTOR_MISMATCH,
                       codes.JUNCTION_MISMATCH, codes.STITCH_MISMATCH,
                       codes.COST_MISMATCH, codes.PATH_CYCLE,
                       codes.MALFORMED_MANIFEST):
            assert reason in codes.VERIFICATION_REASONS
