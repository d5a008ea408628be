"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Verification *failures* (an honest
"this proof does not check out") are reported as values, not exceptions
(see :class:`repro.core.framework.VerificationResult`); exceptions are
reserved for programming errors and malformed inputs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Invalid graph structure or graph operation."""


class NoPathError(GraphError):
    """Raised when no path exists between the queried nodes."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path from node {source} to node {target}")
        self.source = source
        self.target = target


class EncodingError(ReproError):
    """Malformed canonical encoding."""


class ProtocolError(EncodingError):
    """Malformed, truncated or otherwise invalid wire-protocol frame.

    Raised by the strict frame decoders in :mod:`repro.api.envelope`.
    Deriving from :class:`EncodingError` keeps the contract that no
    decoder in the package raises anything outside the typed hierarchy.
    """


class UnsupportedVersionError(ProtocolError):
    """A frame speaks a protocol version this endpoint does not accept."""

    def __init__(self, version: int, accepted) -> None:
        super().__init__(
            f"protocol version {version} not accepted (supported: "
            f"{sorted(accepted)})"
        )
        self.version = version
        self.accepted = tuple(accepted)


class UnknownMessageError(ProtocolError):
    """A well-formed frame whose message type this endpoint does not know."""


class MerkleError(ReproError):
    """Invalid Merkle tree operation or malformed Merkle proof."""


class CryptoError(ReproError):
    """Key generation / signing failure."""


class WorkloadError(ReproError):
    """Workload generation could not satisfy the request."""


class MethodError(ReproError):
    """Verification method misuse (e.g. querying before build)."""


class ServiceError(ReproError):
    """Proof-serving misuse (bad server configuration or request)."""


class ArtifactError(ReproError):
    """Invalid, corrupted or incompatible persisted artifact.

    Raised by the :mod:`repro.store` pack reader/writer and by the
    methods' ``load_state`` validation.  Artifacts cross machine
    boundaries (built on the signer box, served elsewhere), so loading
    is strict: truncation, bit flips, wrong format versions and
    inconsistent section shapes all surface as this one typed error —
    never as a raw ``struct.error`` / ``ValueError`` from the guts of
    the decoder.
    """
