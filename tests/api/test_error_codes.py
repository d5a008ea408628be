"""The error taxonomy is complete, stable and actually used.

These tests are the enforcement arm of :mod:`repro.api.codes`: every
reason code any verify path can emit — found by scanning the source for
``VerificationResult.failure(...)`` call sites — must be declared in
the registry, and the codes the documentation promises must exist.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.api import codes
from repro.core.framework import Client, VerificationResult

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``failure("some-code"`` with arbitrary whitespace, plus
#: ``failure(codes.SOME_CODE`` for call sites using the constants.
LITERAL_CALL = re.compile(r"failure\(\s*\n?\s*\"([a-z0-9-]+)\"", re.MULTILINE)
CONSTANT_CALL = re.compile(r"failure\(\s*\n?\s*codes\.([A-Z0-9_]+)", re.MULTILINE)

#: The sharded tier's codes, deleted with it: (constant name, code).
RETIRED_CODES = [
    ("MALFORMED_MANIFEST", "malformed-manifest"),
    ("UNKNOWN_SHARD", "unknown-shard"),
    ("SHARD_DESCRIPTOR_MISMATCH", "shard-descriptor-mismatch"),
    ("JUNCTION_MISMATCH", "junction-mismatch"),
    ("STITCH_MISMATCH", "stitch-mismatch"),
    ("SHARD_LOCAL_OPTIMAL", "shard-local-optimal"),
    ("E_SHARD_UNAVAILABLE", "shard-unavailable"),
]


def emitted_reason_codes() -> set:
    """Every reason code the library can emit, from the source."""
    found = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        found.update(LITERAL_CALL.findall(text))
        for constant in CONSTANT_CALL.findall(text):
            found.add(getattr(codes, constant))
    return found


class TestRegistryCompleteness:
    def test_every_emitted_reason_is_registered(self):
        emitted = emitted_reason_codes()
        assert emitted, "source scan found no failure() call sites"
        unregistered = emitted - codes.VERIFICATION_REASONS
        assert not unregistered, (
            f"reason codes emitted but missing from repro.api.codes: "
            f"{sorted(unregistered)}"
        )

    def test_registries_are_disjoint(self):
        # A code names either a proof verdict or a wire failure, never
        # both — the overlap would make ErrorMessage-to-verdict mapping
        # ambiguous.
        assert not (codes.VERIFICATION_REASONS & codes.WIRE_ERRORS)

    def test_all_codes_are_kebab_case(self):
        for code in codes.ALL_CODES:
            assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", code), code

    def test_success_reason_is_registered(self):
        assert VerificationResult.success().reason in codes.VERIFICATION_REASONS

    def test_documented_stable_codes_exist(self):
        # The compatibility surface promised in docs/architecture.md.
        for name in ("OK", "MALFORMED_RESPONSE", "UNKNOWN_METHOD",
                     "BAD_SIGNATURE", "STALE_DESCRIPTOR", "ROOT_MISMATCH",
                     "NOT_OPTIMAL", "E_MALFORMED_FRAME", "E_QUERY_FAILED"):
            assert hasattr(codes, name), name

    @pytest.mark.parametrize("name, code", RETIRED_CODES,
                             ids=[code for _, code in RETIRED_CODES])
    def test_retired_shard_codes_are_gone(self, name, code):
        # Only stitched composites and the shard router emitted these;
        # ``shard-local-optimal`` was the one accepting verdict weaker
        # than ``ok``.
        assert not hasattr(codes, name)
        assert code not in codes.ALL_CODES
        assert code not in emitted_reason_codes()


class TestClientUsesTheTaxonomy:
    @pytest.fixture()
    def client(self, signer):
        return Client(signer.verify)

    def test_malformed_bytes(self, client):
        result = client.verify_bytes(1, 2, b"\x00garbage")
        assert not result.ok
        assert result.reason == codes.MALFORMED_RESPONSE

    def test_bytes_shim_matches_verify_bytes(self, client):
        assert (client.verify(1, 2, b"junk").reason
                == client.verify_bytes(1, 2, b"junk").reason)

    def test_unknown_method(self, client, dij, workload):
        vs, vt = workload[0]
        response = dij.answer(vs, vt)
        blob = response.encode().replace(b"\x03DIJ", b"\x03ZZZ", 1)
        result = client.verify_bytes(vs, vt, blob)
        assert not result.ok
        assert result.reason == codes.UNKNOWN_METHOD

    def test_honest_response_is_ok(self, client, dij, workload):
        vs, vt = workload[0]
        result = client.verify_bytes(vs, vt, dij.answer(vs, vt).encode())
        assert result.ok and result.reason == codes.OK

    def test_wrong_endpoint_reason(self, client, dij, workload):
        vs, vt = workload[0]
        result = client.verify_bytes(vs + 1, vt, dij.answer(vs, vt).encode())
        assert not result.ok
        assert result.reason in codes.VERIFICATION_REASONS
