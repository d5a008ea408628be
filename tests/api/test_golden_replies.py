"""Golden reply bytes: honest replies pinned by sha256, per method.

Each method's eight QUERY reply payloads and one k=8 multiproof BATCH
reply payload on ``road300`` are hashed.  A change that should leave a
method's replies alone (a faster encoder, decoder or Merkle prover)
must keep its digests; a change to what a method proves re-pins only
that method's.  The payloads, not the frames, are hashed: a frame's
header carries the protocol version, which moves with every breaking
change to any one method.

FULL, LDM and HYP were pinned before DIJ's two-half-ball rule and did
not move with it; DIJ's digests are the two-half-ball replies'.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.envelope import BatchQueryRequest, QueryRequest, decode_frame
from repro.core.method import get_method
from repro.service.server import ProofServer
from repro.workload.queries import generate_workload

PARAMS = {"DIJ": {}, "FULL": {}, "LDM": {"c": 24}, "HYP": {"num_cells": 25}}

#: ``(sha256 of the eight QUERY reply payloads in order, sha256 of the
#: BATCH reply payload)`` per method.
GOLDEN = {
    "DIJ": ("c1a0286c98477158bfa039b98dddb8475c9b6eeab9a662f7c6a8185abb71d7b7",
            "55f1ede0d375fbc03aef32caeb91bdd2fd4e72c439baaab7ed1f386ae2677c0e"),
    "FULL": ("dfd51139de042c5a20fb81f6df8210ce3b0329b73b21eafa82af4985da70961d",
             "6bbf85b28de92fa0b12cea86c2c40d33a5a3c546db99c02a4fbe8d344082f338"),
    "HYP": ("1227c696b2cda7f07910de0904d3165658301b3f922a898ebe6da2b98d568cb3",
            "a3160a7810754da10c02b295dfe6e17cebf368fde8a31e38e1c6f2c4733f6b8c"),
    "LDM": ("7377e2815fe2d193c5603bc5e69af56086f91faab95a6f5b1e6938eb0d3fe530",
            "217a668d0e41cd8bbcbb53ed44caf2f02a38bf27a7070f286313c250eab86197"),
}


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_honest_reply_bytes_are_pinned(name, road300, signer):
    pairs = list(generate_workload(road300, 1500.0, count=8, seed=99))
    method = get_method(name).build(road300, signer, **PARAMS[name])

    dispatch = ProofServer(method).dispatcher().dispatch
    query = hashlib.sha256()
    for vs, vt in pairs:
        query.update(decode_frame(dispatch(QueryRequest(vs, vt).to_frame())).payload)
    # A fresh server, so no slot of the burst is a cache hit.
    dispatch = ProofServer(method).dispatcher().dispatch
    batch = decode_frame(dispatch(
        BatchQueryRequest(tuple(pairs), multiproof=True).to_frame())).payload

    assert (query.hexdigest(), hashlib.sha256(batch).hexdigest()) == GOLDEN[name]
