"""Wire-level multiproof batches: envelope, end-to-end trust, equivalence.

Four layers under test:

* **envelope compatibility** — the ``multiproof`` request flag and the
  reply's ``shared`` blob are append-only tail fields: unset they leave
  the older bytes untouched, set they extend them, and decoders accept
  both generations; the server answers in the shared layout whether or
  not the flag is set;
* **the happy path** — every slot of a multiproof batch verifies and
  reports the path its pair gets alone;
* **the hostile path** — a tampered, truncated, or omitted shared blob
  produces per-slot failure verdicts, never an exception, and error
  slots ride alongside a shared proof for the ok ones;
* **equivalence** — over drawn bursts, each slot's verdict is the one a
  QUERY for its pair alone gets, and a lying slot folded in among
  honest ones is the only one rejected.

Every method's burst takes the same path, so the last three layers run
on DIJ, FULL, LDM and HYP alike.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.envelope import (
    BatchItem,
    BatchQueryReply,
    BatchQueryRequest,
    QueryReply,
    decode_frame,
    decode_message,
)
from repro.api.transport import InProcessTransport
from repro.core import adversary
from repro.core.batch import MultiProofBatch, combine_multiproof
from repro.core.dij import DijMethod
from repro.core.full import FullMethod
from repro.core.hyp import HypMethod
from repro.core.ldm import LdmMethod
from repro.errors import MethodError
from repro.service.server import ProofServer

BAD_NODE = 10**9

BUILDERS = {
    "DIJ": lambda graph, signer: DijMethod.build(graph, signer),
    "FULL": lambda graph, signer: FullMethod.build(graph, signer),
    "LDM": lambda graph, signer: LdmMethod.build(graph, signer, c=20),
    "HYP": lambda graph, signer: HypMethod.build(graph, signer, num_cells=16),
}


@pytest.fixture()
def client(dispatcher, signer):
    return RemoteClient(InProcessTransport(dispatcher), signer.verify)


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def method(request, road300, signer):
    return BUILDERS[request.param](road300, signer)


@pytest.fixture()
def method_dispatcher(method, signer):
    return ProofServer(method, cache_size=64).dispatcher()


@pytest.fixture()
def method_client(method_dispatcher, signer):
    return RemoteClient(InProcessTransport(method_dispatcher), signer.verify)


class TestEnvelopeCompatibility:
    def test_unset_flag_keeps_legacy_request_bytes(self, workload):
        pairs = tuple(workload[:3])
        plain = BatchQueryRequest(pairs)
        flagged = BatchQueryRequest(pairs, multiproof=True)
        assert flagged.encode().startswith(plain.encode())
        assert len(flagged.encode()) == len(plain.encode()) + 1

    def test_legacy_request_bytes_decode_with_default(self, workload):
        pairs = tuple(workload[:3])
        decoded = BatchQueryRequest.decode(BatchQueryRequest(pairs).encode())
        assert decoded.pairs == pairs
        assert decoded.multiproof is False

    def test_flagged_request_roundtrips(self, workload):
        pairs = tuple(workload[:2])
        encoded = BatchQueryRequest(pairs, multiproof=True).encode()
        assert BatchQueryRequest.decode(encoded).multiproof is True

    def test_unflagged_request_gets_the_shared_layout(self, dij, workload):
        pairs = tuple(workload[:2])
        replies = [ProofServer(dij).dispatcher().dispatch(
            BatchQueryRequest(pairs, multiproof=flag).to_frame())
            for flag in (False, True)]
        assert replies[0] == replies[1]
        assert decode_message(decode_frame(replies[0])).shared

    def test_all_error_reply_has_no_shared_tail(self, client):
        reply = client.transport.roundtrip(BatchQueryRequest(
            ((BAD_NODE, 1), (BAD_NODE, 2)), multiproof=True).to_frame())
        message = decode_message(decode_frame(reply))
        assert isinstance(message, BatchQueryReply)
        assert message.shared == b""
        assert BatchQueryReply.decode(message.encode()).shared == b""

    def test_shared_reply_roundtrips(self, client, workload):
        reply = client.transport.roundtrip(
            BatchQueryRequest(tuple(workload[:2]),
                              multiproof=True).to_frame())
        message = decode_message(decode_frame(reply))
        assert message.shared
        again = BatchQueryReply.decode(message.encode())
        assert again.shared == message.shared
        # Ok slots carry empty placeholders; the payload lives once in
        # the shared blob.
        assert all(item.response_bytes == b"" for item in message.items)


class TestMultiproofRoundtrip:
    def test_slots_verify_like_single_queries(self, method_client, method,
                                              workload):
        results = method_client.query_batch(workload)
        assert [(r.source, r.target) for r in results] == workload
        for result in results:
            assert result.ok, (result.verdict.reason, result.verdict.detail)
            assert result.response_bytes is None  # no standalone reply
            honest = method.answer(result.source, result.target)
            assert result.path == (honest.path_nodes, honest.path_cost)

    def test_batch_ships_fewer_bytes_than_single_queries(self, method_client,
                                                         workload):
        multi = method_client.query_batch(workload)
        singles = [method_client.query(vs, vt) for vs, vt in workload]
        assert sum(r.wire_bytes for r in multi) < \
            sum(r.wire_bytes for r in singles)

    def test_mixed_ok_and_error_slots(self, method_client, workload):
        pairs = [workload[0], (BAD_NODE, 1), workload[1]]
        results = method_client.query_batch(pairs)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].verdict.reason == codes.E_QUERY_FAILED
        # The error slot must not poison the shared proof of the rest.
        assert results[0].path and results[2].path
        assert results[1].path is None

    def test_all_error_batch(self, method_client):
        results = method_client.query_batch([(BAD_NODE, 1), (BAD_NODE, 2)])
        assert all(not r.ok for r in results)
        assert all(r.verdict.reason == codes.E_QUERY_FAILED for r in results)

    def test_duplicate_queries_in_one_batch(self, method_client, workload):
        pairs = [workload[0], workload[0], workload[1]]
        results = method_client.query_batch(pairs)
        assert all(r.ok for r in results)
        assert results[0].path == results[1].path

    def test_singleton_batch(self, method_client, workload):
        (result,) = method_client.query_batch([workload[0]])
        assert result.ok

    def test_query_batch_sends_one_frame(self, method_client, workload):
        transport = method_client.transport
        transport.wire_log.clear()
        transport._log_frames = True
        method_client.query_batch(workload)
        frames = list(transport.wire_log)
        transport._log_frames = False
        assert len(frames) == 1  # one BATCH frame for the whole burst


class _RewriteTransport(InProcessTransport):
    """Dispatch normally, then rewrite the shared blob of BATCH replies."""

    def __init__(self, dispatcher, rewrite):
        super().__init__(dispatcher)
        self._rewrite = rewrite

    def roundtrip(self, frame: bytes) -> bytes:
        reply = super().roundtrip(frame)
        message = decode_message(decode_frame(reply))
        if isinstance(message, BatchQueryReply) and message.shared:
            return replace(
                message, shared=self._rewrite(message.shared)).to_frame()
        return reply


class TestHostileSharedBlob:
    def run_against(self, dispatcher, signer, workload, rewrite):
        client = RemoteClient(_RewriteTransport(dispatcher, rewrite),
                              signer.verify)
        return client.query_batch(workload)

    def assert_all_rejected(self, results, reason=None):
        for result in results:
            assert not result.ok
            if reason is not None:
                assert result.verdict.reason == reason

    def test_truncated_shared_blob(self, method_dispatcher, signer, workload):
        results = self.run_against(method_dispatcher, signer, workload,
                                   lambda shared: shared[:-7])
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_garbage_shared_blob(self, method_dispatcher, signer, workload):
        results = self.run_against(method_dispatcher, signer, workload,
                                   lambda shared: b"\xff" * len(shared))
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_omitted_shared_section(self, method_dispatcher, signer, workload):
        def drop_section(shared):
            batch = MultiProofBatch.decode(shared)
            name = sorted(batch.shared)[0]
            pruned = {k: v for k, v in batch.shared.items() if k != name}
            return replace(batch, shared=pruned).encode()

        results = self.run_against(method_dispatcher, signer, workload,
                                   drop_section)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_tampered_shared_digest_fails_root_check(self, method_dispatcher,
                                                     signer, workload):
        def flip_digest(shared):
            batch = MultiProofBatch.decode(shared)
            name = sorted(batch.shared)[0]
            section = batch.shared[name]
            entry = section.entries[0]
            bad = replace(entry, digest=bytes([entry.digest[0] ^ 1])
                          + entry.digest[1:])
            sections = dict(batch.shared)
            sections[name] = replace(
                section, entries=[bad, *section.entries[1:]])
            return replace(batch, shared=sections).encode()

        results = self.run_against(method_dispatcher, signer, workload,
                                   flip_digest)
        # Value tampering dies in the one union root check, with the
        # verdict an independent reply carrying that digest would get.
        self.assert_all_rejected(results, codes.ROOT_MISMATCH)

    def test_duplicated_shared_entry_is_not_a_cover(self, method_dispatcher,
                                                    signer, workload):
        def repeat_entry(shared):
            batch = MultiProofBatch.decode(shared)
            name = sorted(batch.shared)[0]
            section = batch.shared[name]
            sections = dict(batch.shared)
            sections[name] = replace(
                section, entries=[*section.entries, section.entries[0]])
            return replace(batch, shared=sections).encode()

        results = self.run_against(method_dispatcher, signer, workload,
                                   repeat_entry)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_reordered_batch_queries_rejected(self, method_dispatcher,
                                              signer, workload):
        def swap_queries(shared):
            batch = MultiProofBatch.decode(shared)
            queries = list(batch.queries)
            queries[0], queries[1] = queries[1], queries[0]
            return replace(batch, queries=tuple(queries)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   swap_queries)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_inflated_slot_cost_rejected_only_there(self, method_dispatcher,
                                                    signer, workload):
        def inflate_cost(shared):
            batch = MultiProofBatch.decode(shared)
            costs = list(batch.costs)
            costs[1] *= 1.5
            return replace(batch, costs=tuple(costs)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   inflate_cost)
        assert results[0].ok and results[2].ok
        assert not results[1].ok

    def test_swapped_slot_paths_rejected(self, method_dispatcher, signer,
                                         workload):
        def swap_paths(shared):
            batch = MultiProofBatch.decode(shared)
            paths = list(batch.paths)
            paths[0], paths[1] = paths[1], paths[0]
            return replace(batch, paths=tuple(paths)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   swap_paths)
        self.assert_all_rejected(results)

    def test_shared_proof_for_fewer_queries_than_ok_slots(
            self, method_dispatcher, signer, workload):
        def drop_last_query(shared):
            batch = MultiProofBatch.decode(shared)
            return replace(batch, queries=batch.queries[:-1],
                           paths=batch.paths[:-1], costs=batch.costs[:-1],
                           query_positions=batch.query_positions[:-1]
                           ).encode()

        results = self.run_against(method_dispatcher, signer, workload[:3],
                                   drop_last_query)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_cover_naming_an_undisclosed_leaf(self, method_dispatcher,
                                              signer, workload):
        def point_outside(shared):
            batch = MultiProofBatch.decode(shared)
            (name, positions), *rest = batch.query_positions[0]
            disclosed = set(batch.shared[name].positions)
            outside = min(set(range(len(disclosed) + 1)) - disclosed)
            first = ((name, tuple(sorted({*positions, outside}))), *rest)
            return replace(batch, query_positions=(
                first, *batch.query_positions[1:])).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   point_outside)
        # Only the slot that points outside the union is malformed; the
        # other's leaves are all inside it, authenticated.
        assert results[0].verdict.reason == codes.MALFORMED_PROOF
        assert results[1].ok

    def test_shared_section_sent_twice(self, method_dispatcher, signer,
                                       workload):
        class Twice(dict):
            """Every section name listed twice in the encoded blob."""

            def __len__(self):
                return 2 * super().__len__()

            def __iter__(self):
                for name in list(super().__iter__()):
                    yield name
                    yield name

        def duplicate_sections(shared):
            batch = MultiProofBatch.decode(shared)
            return replace(batch, shared=Twice(batch.shared)).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   duplicate_sections)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    def test_query_listing_a_section_twice(self, method_dispatcher, signer,
                                           workload):
        def list_twice(shared):
            batch = MultiProofBatch.decode(shared)
            first = batch.query_positions[0]
            return replace(batch, query_positions=(
                (*first, first[0]), *batch.query_positions[1:])).encode()

        results = self.run_against(method_dispatcher, signer, workload[:2],
                                   list_twice)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)

    @pytest.mark.parametrize("rewrite", [
        lambda message: replace(message, items=tuple(
            replace(item, response_bytes=b"\x00") if item.ok else item
            for item in message.items)),
        lambda message: replace(message, shared=b""),
    ], ids=["ok-slot-with-bytes", "ok-slots-without-shared"])
    def test_ok_slots_off_the_shared_layout(self, method_dispatcher, signer,
                                            workload, rewrite):
        reply = method_dispatcher.dispatch(
            BatchQueryRequest(tuple(workload[:2])).to_frame())
        forged = rewrite(decode_message(decode_frame(reply))).to_frame()
        client = RemoteClient(None, signer.verify)
        results = client.interpret_batch_reply(workload[:2], forged)
        self.assert_all_rejected(results, codes.MALFORMED_PROOF)


class TestCombineRefusesDisagreeingResponses:
    """The server folds a burst into one multiproof only when every
    response can share it; otherwise ``combine_multiproof`` refuses
    with :class:`MethodError` (which the dispatcher answers as an
    internal error: one server's burst always shares)."""

    @pytest.fixture(scope="class")
    def replies(self, road300, signer, workload):
        dij = DijMethod.build(road300.copy(), signer)
        return [dij.answer(vs, vt) for vs, vt in workload[:2]]

    def test_empty_burst(self):
        with pytest.raises(MethodError, match="empty query batch"):
            combine_multiproof([], [])

    def test_more_queries_than_responses(self, replies, workload):
        with pytest.raises(MethodError, match="3 queries vs 2 responses"):
            combine_multiproof(workload[:3], replies)

    def test_response_for_another_query(self, replies, workload):
        with pytest.raises(MethodError, match="does not answer query"):
            combine_multiproof(workload[:2], replies[::-1])

    def test_responses_of_two_methods(self, replies, road300, signer,
                                      workload):
        full = FullMethod.build(road300.copy(), signer)
        with pytest.raises(MethodError, match="mixed methods"):
            combine_multiproof(workload[:2],
                               [replies[0], full.answer(*workload[1])])

    def test_responses_of_two_versions(self, road300, signer, workload):
        graph = road300.copy()
        dij = DijMethod.build(graph, signer)
        before = dij.answer(*workload[0])
        u, v, w = next(iter(graph.edges()))
        graph.update_edge_weight(u, v, w * 1.5)
        dij.apply_update(signer)
        after = dij.answer(*workload[1])
        with pytest.raises(MethodError, match="different descriptor versions"):
            combine_multiproof(workload[:2], [before, after])

    def test_conflicting_payloads_for_one_leaf(self, replies, workload):
        honest = replies[0]
        name, section = next(iter(honest.sections.items()))
        forged = replace(honest, sections={
            **honest.sections,
            name: replace(section, payloads=[section.payloads[0] + b"\x00",
                                             *section.payloads[1:]])})
        pair = workload[0]
        with pytest.raises(MethodError, match="conflicting payloads"):
            combine_multiproof([pair, pair], [honest, forged])


def _pair(ids):
    """A query pair: two known nodes, or an unknown source."""
    known = st.sampled_from(ids)
    return st.tuples(known, known) | known.map(lambda v: (BAD_NODE, v))


def _burst(data, ids):
    """1–8 slots drawn from a pool of at most four pairs (so duplicates
    are common)."""
    pool = data.draw(st.lists(_pair(ids), min_size=1, max_size=4))
    return data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


EQUIVALENCE = settings(derandomize=True, max_examples=30, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


class TestBatchVerdictsEqualSingles:
    """The net under the one batch path: a slot is accepted or rejected,
    for the same reason, exactly as its pair alone would be."""

    @EQUIVALENCE
    @given(data=st.data())
    def test_each_slot_gets_its_single_verdict(self, method, road300, signer,
                                               data):
        burst = _burst(data, road300.node_ids())
        client = RemoteClient(
            InProcessTransport(ProofServer(method).dispatcher()), signer.verify)
        for (vs, vt), result in zip(burst, client.query_batch(burst)):
            alone = client.query(vs, vt)
            assert (result.ok, result.verdict.reason) == \
                (alone.ok, alone.verdict.reason)
            assert result.path == alone.path

    @EQUIVALENCE
    @given(data=st.data())
    def test_a_lying_slot_is_the_only_one_rejected(self, method, road300,
                                                   signer, data):
        burst = [(vs, vt) for vs, vt in _burst(data, road300.node_ids())
                 if vs != BAD_NODE and vs != vt]
        assume(burst)
        liar = data.draw(st.integers(0, len(burst) - 1))
        try:
            lie = adversary.suboptimal_path(method, road300, *burst[liar])
        except MethodError:
            assume(False)  # no detour to lie with
        responses = [lie if index == liar else method.answer(vs, vt)
                     for index, (vs, vt) in enumerate(burst)]
        shared = combine_multiproof(burst, responses).encode()
        frame = BatchQueryReply((BatchItem(b""),) * len(burst),
                                shared=shared).to_frame()
        client = RemoteClient(None, signer.verify)
        alone = client.interpret_query_reply(
            *burst[liar], QueryReply(lie.encode()).to_frame())
        assert not alone.ok
        results = client.interpret_batch_reply(burst, frame)
        assert [r.ok for r in results] == \
            [index != liar for index in range(len(burst))]
        assert results[liar].verdict.reason == alone.verdict.reason
