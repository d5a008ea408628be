"""The stable error taxonomy shared by verification and the wire protocol.

Every machine-readable code the system emits is declared here, once:

* **verification reason codes** — the ``reason`` field of a
  :class:`~repro.core.framework.VerificationResult`.  Clients branch on
  these (retry? alarm? drop the provider?), so they are a compatibility
  surface: never rename one, only add.
* **wire error codes** — the ``code`` field of a protocol-level
  :class:`~repro.api.envelope.ErrorMessage`.  These describe transport
  and serving failures (a malformed frame, an unanswerable query), not
  proof verdicts.

``tests/api/test_error_codes.py`` scans the source tree and fails if
any emitted code is missing from this registry, which is what keeps the
taxonomy honest as methods grow new rejection paths.

This module deliberately imports nothing from the package so that every
layer — including :mod:`repro.core.framework` — can depend on it
without cycles.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Verification reason codes (VerificationResult.reason)
# ----------------------------------------------------------------------

#: The accepting verdict.
OK = "ok"

# -- response envelope / dispatch --------------------------------------
#: The response bytes do not decode as a :class:`QueryResponse`.
MALFORMED_RESPONSE = "malformed-response"
#: The response names a method the client's registry does not know.
UNKNOWN_METHOD = "unknown-method"
#: Response / descriptor method fields disagree with the expected method.
METHOD_MISMATCH = "method-mismatch"

# -- descriptor trust checks -------------------------------------------
#: The owner signature on the descriptor does not verify.
BAD_SIGNATURE = "bad-signature"
#: The descriptor is authentic but signs a superseded graph version.
STALE_DESCRIPTOR = "stale-descriptor"
#: The trusted descriptor supplied out of band differs from the one in
#: the response (``repro-spv verify --descriptor``).
DESCRIPTOR_MISMATCH = "descriptor-mismatch"

# -- Merkle integrity (ΓT) ---------------------------------------------
#: A section names an ADS the descriptor does not cover.
UNKNOWN_TREE = "unknown-tree"
#: ΓS/ΓT material is syntactically broken (undecodable tuples, an
#: impossible Merkle cover, duplicate disclosures).
MALFORMED_PROOF = "malformed-proof"
#: A reconstructed Merkle root differs from the signed root.
ROOT_MISMATCH = "root-mismatch"

# -- reported path checks ----------------------------------------------
#: The response contains no path at all.
EMPTY_PATH = "empty-path"
#: The path endpoints do not match the query.
ENDPOINT_MISMATCH = "endpoint-mismatch"
#: The reported path repeats a node.
PATH_CYCLE = "path-cycle"
#: A path node has no authenticated tuple in ΓS.
PATH_NODE_MISSING = "path-node-missing"
#: A path hop is not an edge of the authenticated graph.
PHANTOM_EDGE = "phantom-edge"
#: The authenticated edge weights do not sum to the reported cost.
COST_MISMATCH = "cost-mismatch"

# -- optimality checks (per-method client searches) --------------------
#: The client search found a shorter route than the reported one.
NOT_OPTIMAL = "not-optimal"
#: The disclosed subgraph misses a node Lemma 1/2 requires (tuple drop).
INCOMPLETE_SUBGRAPH = "incomplete-subgraph"
#: The client search exhausted the disclosure without settling the target.
TARGET_UNREACHABLE = "target-unreachable"
#: No authenticated tuple was disclosed for the query source.
SOURCE_MISSING = "source-missing"
#: No authenticated tuple was disclosed for the query target.
TARGET_MISSING = "target-missing"
#: FULL: the disclosed distance tuple speaks about a different pair.
WRONG_DISTANCE_TUPLE = "wrong-distance-tuple"
#: LDM: a compressed tuple's representative was not disclosed.
MISSING_REPRESENTATIVE = "missing-representative"
#: HYP: a query endpoint is absent from its cell's disclosure.
ENDPOINT_MISSING = "endpoint-missing"
#: HYP: the directory entry disagrees with the disclosed cell material.
DIRECTORY_MISMATCH = "directory-mismatch"
#: HYP: a cell's tuple disclosure is incomplete.
INCOMPLETE_CELL = "incomplete-cell"
#: HYP: the hyper-edge disclosure between border sets is incomplete.
INCOMPLETE_HYPEREDGES = "incomplete-hyperedges"

#: Every reason code a :class:`VerificationResult` may carry.
VERIFICATION_REASONS = frozenset({
    OK,
    MALFORMED_RESPONSE, UNKNOWN_METHOD, METHOD_MISMATCH,
    BAD_SIGNATURE, STALE_DESCRIPTOR, DESCRIPTOR_MISMATCH,
    UNKNOWN_TREE, MALFORMED_PROOF, ROOT_MISMATCH,
    EMPTY_PATH, ENDPOINT_MISMATCH, PATH_CYCLE, PATH_NODE_MISSING,
    PHANTOM_EDGE, COST_MISMATCH,
    NOT_OPTIMAL, INCOMPLETE_SUBGRAPH, TARGET_UNREACHABLE,
    SOURCE_MISSING, TARGET_MISSING, WRONG_DISTANCE_TUPLE,
    MISSING_REPRESENTATIVE, ENDPOINT_MISSING, DIRECTORY_MISMATCH,
    INCOMPLETE_CELL, INCOMPLETE_HYPEREDGES,
})

# ----------------------------------------------------------------------
# Wire error codes (envelope.ErrorMessage.code)
# ----------------------------------------------------------------------

#: The request frame failed the strict decoder (bad magic, truncation).
E_MALFORMED_FRAME = "malformed-frame"
#: The frame's protocol version is outside the server's accepted set.
E_UNSUPPORTED_VERSION = "unsupported-version"
#: The frame decoded but its message type is not routable.
E_UNKNOWN_MESSAGE = "unknown-message-type"
#: The message payload decoded but its contents are unusable.
E_BAD_REQUEST = "bad-request"
#: The provider could not answer (unknown node, unreachable target).
E_QUERY_FAILED = "query-failed"
#: The endpoint does not accept owner update pushes (no signer).
E_UPDATES_DISABLED = "updates-not-supported"
#: An update batch was rejected; the previous state keeps serving.
E_UPDATE_FAILED = "update-failed"
#: The server hit an unexpected internal failure.
E_INTERNAL = "internal-error"
#: The request body never arrived in full within the handler timeout
#: (a short body or a slow-loris client); the connection is closed.
E_REQUEST_TIMEOUT = "request-timeout"

#: Every code a wire-level :class:`ErrorMessage` may carry.
WIRE_ERRORS = frozenset({
    E_MALFORMED_FRAME, E_UNSUPPORTED_VERSION, E_UNKNOWN_MESSAGE,
    E_BAD_REQUEST, E_QUERY_FAILED, E_UPDATES_DISABLED, E_UPDATE_FAILED,
    E_INTERNAL, E_REQUEST_TIMEOUT,
})

#: The complete taxonomy (wire + verification), for documentation tools
#: and the source-scan test.
ALL_CODES = VERIFICATION_REASONS | WIRE_ERRORS
