"""The paper's contribution: authenticated shortest path verification.

Four methods spanning the precomputation / proof-size trade-off:

* :class:`~repro.core.dij.DijMethod` — no hints, Dijkstra-ball subgraph proof;
* :class:`~repro.core.full.FullMethod` — all-pairs distance Merkle B-tree;
* :class:`~repro.core.ldm.LdmMethod` — quantized + compressed landmark vectors;
* :class:`~repro.core.hyp.HypMethod` — HiTi grid with hyper-edge distances.

Use the three-party roles for the full workflow::

    owner = DataOwner(graph)
    method = owner.publish("LDM", c=100)
    provider = ServiceProvider(method)
    client = Client(owner.signer.verify)

    response = provider.answer(vs, vt)
    result = client.verify(vs, vt, response)
    assert result.ok
"""

from repro.core.dij import DijMethod
from repro.core.framework import Client, DataOwner, ServiceProvider, VerificationResult
from repro.core.full import FullMethod
from repro.core.hyp import HypMethod
from repro.core.ldm import LdmMethod, LdmParams
from repro.core.method import METHODS, UpdateReport, VerificationMethod, get_method
from repro.core.proofs import (
    DIRECTORY_TREE,
    DISTANCE_TREE,
    NETWORK_TREE,
    ProofSizes,
    QueryResponse,
    SignedDescriptor,
    TreeConfig,
    TreeSection,
)

__all__ = [
    "DataOwner",
    "ServiceProvider",
    "Client",
    "VerificationResult",
    "VerificationMethod",
    "UpdateReport",
    "METHODS",
    "get_method",
    "DijMethod",
    "FullMethod",
    "LdmMethod",
    "LdmParams",
    "HypMethod",
    "QueryResponse",
    "SignedDescriptor",
    "TreeConfig",
    "TreeSection",
    "ProofSizes",
    "NETWORK_TREE",
    "DISTANCE_TREE",
    "DIRECTORY_TREE",
    "adversary",
]


def __getattr__(name: str):
    # The attack helpers load on first use: no verifier imports them.
    if name == "adversary":
        import importlib
        return importlib.import_module("repro.core.adversary")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
