"""Hostile frames against a live HTTP frontend: typed outcomes only.

The dispatcher's contract is that *nothing* a client sends crashes the
serving stack.  Each test sends one kind of hostile frame, as raw bytes
in a POST body, to a live :class:`AsyncProofHttpServer`, on one
keep-alive connection that carries an honest, verified query after
every hostile frame.  What each kind must draw:

* random noise, truncated frames and unknown protocol versions: a
  typed wire error frame with the decoder's code;
* a bit flip: a typed error frame or, where the flipped frame still
  decodes as a query, a reply that verifies for the query it now asks;
* a byte-for-byte replay of a valid frame: legitimate traffic to an
  untrusted provider, answered and verified like the original.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api import codes
from repro.api.client import RemoteClient
from repro.api.envelope import (
    ErrorMessage,
    QueryReply,
    QueryRequest,
    decode_frame,
    decode_message,
)
from repro.api.transport import HttpTransport
from repro.errors import ProtocolError
from repro.service.aio import AsyncProofHttpServer
from repro.service.server import ProofServer

#: The codes a frame the dispatcher cannot decode may draw.
DECODE_REFUSALS = {codes.E_MALFORMED_FRAME, codes.E_UNSUPPORTED_VERSION,
                   codes.E_UNKNOWN_MESSAGE, codes.E_BAD_REQUEST}


@pytest.fixture(scope="module")
def url(dij):
    server = AsyncProofHttpServer(ProofServer(dij, cache_size=64).dispatcher())
    with server:
        yield server.url


@pytest.fixture()
def wire(url, signer, workload):
    """``(client, send)``: ``send(frame)`` posts one hostile frame on a
    kept-alive connection and returns the reply bytes, after an honest
    query on the same connection has verified."""
    transport = HttpTransport(url)
    client = RemoteClient(transport, signer.verify)
    honest = itertools.cycle(workload)

    def send(frame: bytes):
        reply = transport.roundtrip(frame)
        vs, vt = next(honest)
        result = client.query(vs, vt)
        assert result.ok, (vs, vt, result.verdict.reason)
        return reply

    with transport:
        assert client.query(*workload[0]).ok
        yield client, send


def error_code(reply: bytes) -> str:
    message = decode_message(decode_frame(reply))
    assert isinstance(message, ErrorMessage), type(message).__name__
    return message.code


def test_noise_draws_malformed_frame(wire):
    _, send = wire
    rng = random.Random(20100301)
    for _ in range(32):
        noise = rng.randbytes(rng.randint(4, 64))
        assert error_code(send(noise)) == codes.E_MALFORMED_FRAME


def test_truncated_frames_draw_malformed_frame(wire, workload):
    _, send = wire
    frame = QueryRequest(*workload[1]).to_frame()
    for length in range(1, len(frame)):
        assert error_code(send(frame[:length])) == codes.E_MALFORMED_FRAME


def test_bad_version_draws_unsupported_version(wire, workload):
    _, send = wire
    frame = bytearray(QueryRequest(*workload[2]).to_frame())
    for version in (0, 1, 0x63):  # 1 is the retired protocol version
        frame[4] = version  # the one-byte varint after the magic
        assert error_code(send(bytes(frame))) == codes.E_UNSUPPORTED_VERSION


def test_every_bit_flip_draws_a_typed_outcome(wire, workload):
    client, send = wire
    frame = QueryRequest(*workload[3]).to_frame()
    verified = 0
    for position in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[position] ^= 1 << bit
            reply = send(bytes(flipped))
            try:
                asked = decode_message(decode_frame(bytes(flipped)))
            except ProtocolError:
                assert error_code(reply) in DECODE_REFUSALS
                continue
            message = decode_message(decode_frame(reply))
            if isinstance(message, ErrorMessage):
                assert message.code in DECODE_REFUSALS | {
                    codes.E_QUERY_FAILED}, (position, bit, message.code)
                continue
            assert isinstance(asked, QueryRequest) and \
                isinstance(message, QueryReply), (position, bit)
            result = client.interpret_query_reply(asked.source, asked.target,
                                                  reply)
            assert result.ok, (position, bit, result.verdict.reason)
            verified += 1
    assert verified, "no flip left a query the server could answer"


def test_replayed_frame_is_answered_and_verifies(wire, workload):
    client, send = wire
    vs, vt = workload[4]
    frame = QueryRequest(vs, vt).to_frame()
    first = send(frame)
    replayed = send(frame)
    for reply in (first, replayed):
        assert client.interpret_query_reply(vs, vt, reply).ok
    assert client.interpret_query_reply(vs, vt, replayed).cached
    assert decode_message(decode_frame(replayed)).response_bytes == \
        decode_message(decode_frame(first)).response_bytes
