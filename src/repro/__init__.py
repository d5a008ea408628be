"""repro — authenticated shortest path verification.

A full reproduction of *"Efficient Verification of Shortest Path
Search via Authenticated Hints"* (Yiu, Lin, Mouratidis; ICDE 2010):
the three-party outsourcing framework, the four verification methods
(DIJ, FULL, LDM, HYP) and every substrate they rest on — Merkle
trees over graph-node orderings, pure-Python RSA, landmark vectors
with quantization/compression, and the HiTi grid hierarchy.

Quick start::

    from repro import DataOwner, ServiceProvider, Client
    from repro.graph import road_network

    graph = road_network(2000, seed=7)
    owner = DataOwner(graph)
    method = owner.publish("LDM", c=50)
    provider = ServiceProvider(method)
    client = Client(owner.signer.verify)

    vs, vt = graph.node_ids()[0], graph.node_ids()[-1]
    response = provider.answer(vs, vt)
    assert client.verify(vs, vt, response).ok
"""

from repro.api.client import RemoteClient, RemoteResult
from repro.api.dispatcher import Dispatcher
from repro.api.transport import HttpTransport, InProcessTransport
from repro.core import (
    Client,
    DataOwner,
    DijMethod,
    FullMethod,
    HypMethod,
    LdmMethod,
    METHODS,
    QueryResponse,
    ServiceProvider,
    UpdateReport,
    VerificationMethod,
    VerificationResult,
    get_method,
)
from repro.crypto import RsaSigner
from repro.graph import SpatialGraph, grid_network, road_network
from repro.service import (
    AsyncProofHttpServer,
    ProofCache,
    ProofRequest,
    ProofServer,
    ServedResponse,
    ServerMetrics,
    UpdateRequest,
)
from repro.shortestpath import Path
from repro.store import load_method, save_method
from repro.workload import generate_workload, load_dataset

__version__ = "1.0.0"

__all__ = [
    "DataOwner",
    "ServiceProvider",
    "Client",
    "VerificationMethod",
    "VerificationResult",
    "QueryResponse",
    "METHODS",
    "get_method",
    "DijMethod",
    "FullMethod",
    "LdmMethod",
    "HypMethod",
    "RsaSigner",
    "ProofServer",
    "AsyncProofHttpServer",
    "Dispatcher",
    "RemoteClient",
    "RemoteResult",
    "HttpTransport",
    "InProcessTransport",
    "ProofRequest",
    "UpdateRequest",
    "UpdateReport",
    "ProofCache",
    "ServedResponse",
    "ServerMetrics",
    "SpatialGraph",
    "grid_network",
    "road_network",
    "Path",
    "generate_workload",
    "load_dataset",
    "save_method",
    "load_method",
    "__version__",
]
