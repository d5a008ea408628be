"""Wire API: versioned envelopes, dispatch, transports, remote client.

This package is the system's protocol surface — how the three paper
roles interact once proofs cross a real trust boundary as bytes:

* :mod:`repro.api.codes` — the stable error taxonomy (verification
  reason codes + wire error codes), declared once;
* :mod:`repro.api.envelope` — framed request/response messages with a
  protocol-version handshake and strict, typed-error decoders;
* :mod:`repro.api.dispatcher` — the transport-neutral router turning
  request frames into :class:`~repro.service.server.ProofServer` calls;
* :mod:`repro.api.transport` — in-process and HTTP frame carriers;
* :mod:`repro.api.client` — :class:`RemoteClient`, which fetches the
  signed descriptor and proofs over the wire and verifies from bytes
  alone.

Only the dependency-light modules (``codes``, ``envelope``) load
eagerly; the serving-side names resolve lazily (PEP 562) so that core
modules can import the taxonomy without dragging in — or cycling with —
the serving stack.
"""

from repro.api import codes
from repro.api.envelope import (
    BatchItem,
    BatchQueryReply,
    BatchQueryRequest,
    DescriptorReply,
    DescriptorRequest,
    ErrorMessage,
    Frame,
    HelloReply,
    HelloRequest,
    MetricsReply,
    MetricsRequest,
    PROTOCOL_VERSION,
    QueryReply,
    QueryRequest,
    SUPPORTED_VERSIONS,
    UpdatePushRequest,
    UpdateReply,
    WireUpdate,
    decode_frame,
    decode_message,
    encode_frame,
    error_frame,
)

#: Lazily resolved exports and their home modules.
_LAZY = {
    "Dispatcher": "repro.api.dispatcher",
    "RemoteClient": "repro.api.client",
    "RemoteResult": "repro.api.client",
    "Transport": "repro.api.transport",
    "InProcessTransport": "repro.api.transport",
    "HttpTransport": "repro.api.transport",
    "AsyncTransport": "repro.api.transport",
}

__all__ = [
    "codes",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Frame",
    "encode_frame",
    "decode_frame",
    "decode_message",
    "error_frame",
    "HelloRequest",
    "HelloReply",
    "QueryRequest",
    "QueryReply",
    "BatchQueryRequest",
    "BatchQueryReply",
    "BatchItem",
    "DescriptorRequest",
    "DescriptorReply",
    "UpdatePushRequest",
    "UpdateReply",
    "WireUpdate",
    "MetricsRequest",
    "MetricsReply",
    "ErrorMessage",
    *sorted(set(_LAZY)),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value
