"""Three-party framework: data owner, service provider, client.

Thin role objects that mirror Figure 2 of the paper, plus the
verification outcome type and the floating point comparison policy
shared by all methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api import codes
from repro.crypto.signer import RsaSigner, Signer
from repro.errors import EncodingError, MethodError
from repro.graph.graph import SpatialGraph

#: Relative/absolute tolerances for distance equality.  Provider and
#: client sum float64 edge weights in different orders, so exact
#: equality is too strict; 1e-9 relative is far below any meaningful
#: weight difference yet far above accumulated rounding error.
REL_TOL = 1e-9
ABS_TOL = 1e-6


def client_limit(distance: float) -> float:
    """The farthest a client's search looks past a reported *distance*
    before a route counts as longer: the comparison margin of
    :func:`distances_close`."""
    return distance + REL_TOL * distance + ABS_TOL


def provider_margin(distance: float) -> float:
    """How far past *distance* a provider's proof search runs: twice the
    client's margin, so float noise never makes an honest proof
    incomplete."""
    return 2 * (REL_TOL * distance + ABS_TOL)


def distances_close(a: float, b: float) -> bool:
    """Whether two path distances should be considered equal."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def definitely_greater(a: float, b: float) -> bool:
    """Whether ``a > b`` beyond float noise."""
    return a > b + max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


@dataclass
class VerificationResult:
    """Outcome of client-side verification.

    ``ok`` is the verdict; ``reason`` is a short machine-friendly code
    (e.g. ``"root-mismatch"``), ``detail`` a human-readable expansion.
    Failures are values, not exceptions: a client facing a malicious
    provider needs a verdict, not a stack trace.
    """

    ok: bool
    reason: str = "ok"
    detail: str = ""
    checks: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def success(cls, **checks) -> "VerificationResult":
        """An accepting result, optionally recording check values."""
        return cls(ok=True, checks=checks)

    @classmethod
    def failure(cls, reason: str, detail: str = "") -> "VerificationResult":
        """A rejecting result with a reason code."""
        return cls(ok=False, reason=reason, detail=detail)


class DataOwner:
    """The trusted authority holding the original graph and the keys."""

    def __init__(self, graph: SpatialGraph, signer: "Signer | None" = None) -> None:
        self.graph = graph
        self.signer = signer if signer is not None else RsaSigner()

    def publish(self, method: str = "LDM", **params):
        """Build a verification method instance ready for outsourcing.

        Returns the built :class:`~repro.core.method.VerificationMethod`;
        hand it to a :class:`ServiceProvider`.  Keyword arguments are
        method parameters (``fanout``, ``ordering``, and per-method
        extras such as ``c``/``bits``/``xi`` or ``num_cells``).
        """
        from repro.core.method import get_method

        cls = get_method(method)
        return cls.build(self.graph, self.signer, **params)


class ServiceProvider:
    """The third party answering queries with proofs."""

    def __init__(self, method) -> None:
        self.method = method

    def answer(self, source: int, target: int):
        """Algorithm 1: compute the path, ΓS and ΓT."""
        return self.method.answer(source, target)


class Client:
    """A query client holding only the owner's public key.

    The client is *bytes-first*: the canonical entry point is
    :meth:`verify_bytes`, which takes the provider's response exactly
    as it crossed the wire and never requires — or creates — any
    provider-side object.  :meth:`verify` remains as the historical
    shim and accepts either bytes or an already-decoded
    :class:`~repro.core.proofs.QueryResponse`.

    All rejection paths report reason codes from the shared taxonomy
    (:mod:`repro.api.codes`), the same registry the wire protocol's
    error envelopes draw from.
    """

    def __init__(self, verify_signature,
                 min_descriptor_version: "int | None" = None) -> None:
        """``verify_signature(message, signature) -> bool``.

        Pass ``signer.verify`` or an
        :class:`~repro.crypto.signer.RsaVerifier` bound to the owner's
        public key.  ``min_descriptor_version`` is the freshness floor
        the owner announces alongside the key: when set, any response
        signed under an older graph version is rejected as a
        stale-proof replay (reason ``stale-descriptor``).
        """
        self.verify_signature = verify_signature
        self.min_descriptor_version = min_descriptor_version

    def require_version(self, version: int) -> None:
        """Raise the freshness floor (called after an owner update).

        Monotonic: a late or out-of-order announcement for an older
        version must not re-admit replays the client already rejects.
        """
        current = self.min_descriptor_version or 0
        self.min_descriptor_version = max(current, version)

    def verify_bytes(self, source: int, target: int,
                     data: bytes) -> VerificationResult:
        """Verify a serialized provider response for ``(source, target)``.

        This is the three-party model made literal: *data* is whatever
        arrived over the wire, and undecodable bytes are a verdict
        (reason ``malformed-response``), not an exception — a client
        facing a malicious provider needs an answer either way.
        """
        from repro.core.proofs import QueryResponse

        try:
            response = QueryResponse.decode(data)
        except EncodingError as exc:
            return VerificationResult.failure(
                codes.MALFORMED_RESPONSE,
                f"response bytes do not decode: {exc}",
            )
        return self._verify_decoded(source, target, response)

    def verify(self, source: int, target: int, response) -> VerificationResult:
        """Verify a provider response for the query ``(source, target)``.

        Shim over :meth:`verify_bytes`: *response* may be the raw wire
        bytes or a decoded :class:`~repro.core.proofs.QueryResponse`
        (the pre-wire-API signature, kept for in-process callers).
        """
        if isinstance(response, (bytes, bytearray, memoryview)):
            return self.verify_bytes(source, target, bytes(response))
        return self._verify_decoded(source, target, response)

    def _verify_decoded(self, source: int, target: int,
                        response) -> VerificationResult:
        from repro.core.method import get_method

        try:
            cls = get_method(response.method)
        except MethodError:
            return VerificationResult.failure(
                codes.UNKNOWN_METHOD,
                f"method {response.method!r} is not recognized",
            )
        return cls.verify(source, target, response, self.verify_signature,
                          min_version=self.min_descriptor_version)
