"""Verification method base class and registry.

A *verification method* bundles the three roles of Figure 2:

* **owner** — :meth:`VerificationMethod.build` constructs the ADS and
  authenticated hints and signs the descriptor (done once, offline);
* **provider** — :meth:`VerificationMethod.answer` runs the shortest
  path search and assembles ``(path, ΓS, ΓT)`` per query;
* **client** — :meth:`VerificationMethod.verify` checks a response
  using only the response bytes, the query, and the owner's public
  key (it never touches the graph).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, Type

from repro.api import codes
from repro.core.checks import verify_descriptor, verify_section_root
from repro.crypto.signer import Signer
from repro.errors import EncodingError, MethodError
from repro.core.framework import VerificationResult
from repro.core.proofs import QueryResponse, SignedDescriptor
from repro.graph.graph import GraphMutation, SpatialGraph
from repro.shortestpath.path import Path

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.state import MethodState

#: ``verify(message, signature) -> bool`` — the client's view of the owner key.
SignatureVerifier = Callable[[bytes, bytes], bool]

@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one :meth:`VerificationMethod.apply_update` call.

    ``mode`` records how the method absorbed the pending mutations:

    * ``"noop"`` — nothing was pending;
    * ``"incremental"`` — only the touched hint tuples were recomputed
      and the changed Merkle leaves patched via ``update_leaves`` (for
      LDM: the endpoint tuples, with the drift taken up by its slack Δ);
    * ``"rebase"`` — LDM only: the landmark rows were repaired against
      every edge changed since the last rebase, and Δ reset to 0;
    * ``"partial-rebuild"`` — HYP only: a structural mutation flipped a
      border flag, so the hyper-edge tree was rebuilt over the new
      border set while the network tree was patched;
    * ``"full-rebuild"`` — the mutation invalidated the leaf layout
      itself (new nodes, adjacency-dependent ordering), so the method
      was rebuilt from scratch with its original parameters.

    All four modes end in a freshly signed descriptor carrying the new
    graph version; the resulting state is byte-identical to a
    from-scratch build on the mutated graph.
    """

    method: str
    mode: str
    mutations: int
    leaves_patched: int = 0
    trees_rebuilt: int = 0
    seconds: float = 0.0
    version: int = 0


def check_algo_sp(algo_sp: str) -> None:
    """Reject any provider search but ``dijkstra``, the one left.

    The name stays a build parameter and an artifact field, so a build
    checks it once here instead of failing every query.
    """
    if algo_sp != "dijkstra":
        raise MethodError(
            f"unknown provider algorithm {algo_sp!r}; choose 'dijkstra'")


class VerificationMethod(ABC):
    """Base class for DIJ / FULL / LDM / HYP."""

    #: Method name as used in the paper and in descriptors.
    name: str = "?"

    def __init__(self) -> None:
        self._descriptor: SignedDescriptor | None = None
        #: Owner-side hint construction time, excluding the base graph
        #: Merkle tree that every method shares (paper Fig. 8c omits DIJ
        #: because it has no hints).
        self.construction_seconds: float = 0.0
        #: The provider's search algorithm ``algo_sp`` (Algorithm 1 line 1).
        #: The proofs never depend on how the provider found the path.
        self.algo_sp: str = "dijkstra"
        #: Graph version the authenticated structures currently reflect;
        #: :meth:`apply_update` absorbs ``graph.mutations_since(this)``.
        self._synced_version: int = 0
        #: Exact keyword arguments a from-scratch rebuild needs to
        #: reproduce this instance byte for byte (``build`` fills it,
        #: pinning derived choices such as LDM's selected landmarks).
        self._build_params: dict = {}
        #: The user-facing build arguments, *without* the pins — what a
        #: re-publish from scratch would pass (for LDM that re-runs
        #: landmark selection; for the other methods it equals
        #: :attr:`_build_params`).
        self._publish_params: dict = {}

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def update_edge_weight(self, u: int, v: int, weight: float,
                           signer: "Signer") -> UpdateReport:
        """Owner-side convenience: re-weight one edge and re-authenticate.

        Equivalent to ``graph.update_edge_weight(...)`` followed by
        :meth:`apply_update`.  All four methods support it; how much
        work it costs depends on the method (DIJ patches two Merkle
        leaves, the hint-bearing methods re-derive only the distance
        rows the edge can have touched).
        """
        self.graph.update_edge_weight(u, v, weight)
        return self.apply_update(signer)

    def apply_update(self, signer: "Signer") -> UpdateReport:
        """Absorb every graph mutation since the last sync and re-sign.

        Reads the graph changelog past :attr:`_synced_version`, lets
        the concrete method patch its authenticated structures (or
        rebuild them where a mutation's effect is global), and leaves
        the method holding a descriptor signed over the new roots and
        the new graph version.  The post-update state is byte-identical
        to a from-scratch ``build`` on the mutated graph with the same
        (pinned) parameters.
        """
        graph = self.graph
        pending = graph.mutations_since(self._synced_version)
        if not pending:
            return UpdateReport(self.name, "noop", 0,
                                version=self._descriptor.version
                                if self._descriptor else 0)
        start = time.perf_counter()
        mode, leaves_patched, trees_rebuilt = self._apply_mutations(
            pending, signer)
        self._synced_version = graph.version
        return UpdateReport(
            method=self.name,
            mode=mode,
            mutations=len(pending),
            leaves_patched=leaves_patched,
            trees_rebuilt=trees_rebuilt,
            seconds=time.perf_counter() - start,
            version=self.descriptor.version,
        )

    def _apply_mutations(self, mutations: "Sequence[GraphMutation]",
                         signer: "Signer") -> tuple[str, int, int]:
        """Method-specific update path; default is a full rebuild.

        Returns ``(mode, leaves patched, trees rebuilt)``.  Concrete
        methods override this with incremental paths and call
        :meth:`_rebuild` for the cases they cannot patch.
        """
        return self._rebuild(signer)

    def _rebuild(self, signer: "Signer") -> tuple[str, int, int]:
        """From-scratch rebuild on the current graph, in place."""
        fresh = type(self).build(self._graph, signer, **self._build_params)
        self.__dict__.update(fresh.__dict__)
        return "full-rebuild", 0, self._num_trees()

    def _num_trees(self) -> int:
        """How many ADSs the method's descriptor covers."""
        descriptor = self._descriptor
        return len(descriptor.trees) if descriptor is not None else 0

    # ------------------------------------------------------------------
    # build-state vs. serve-state
    # ------------------------------------------------------------------
    def dump_state(self) -> "MethodState":
        """Freeze the serve state for persistence.

        Returns a :class:`~repro.core.state.MethodState` holding the
        signed descriptor, the (pinned) rebuild parameters, the graph
        and the method's section arrays/blobs — everything
        :meth:`load_state` needs to reconstruct a serving-capable
        method on another machine, and nothing it does not (no signer,
        no transient timings).  The :mod:`repro.store` pack writes this
        to the ``.rspv`` artifact format.
        """
        from repro.core.state import MethodState

        state = MethodState(
            method=self.name,
            graph=self.graph,
            graph_version=self.graph.version,
            descriptor=self.descriptor,
            build_params=dict(self._build_params),
            publish_params=dict(self._publish_params),
            algo_sp=self.algo_sp,
        )
        self._dump_sections(state)
        return state

    @classmethod
    def load_state(cls, state: "MethodState") -> "VerificationMethod":
        """Reconstruct a serving-capable method from persisted state.

        The inverse of :meth:`dump_state`: the result answers queries
        (and absorbs :meth:`apply_update` batches) exactly like the
        method that was dumped — byte-identical descriptor and
        responses — without ever holding the signer.  Validation is
        strict and typed (:class:`~repro.errors.ArtifactError`): state
        from disk is untrusted input.
        """
        from repro.errors import ArtifactError

        if state.method != cls.name or state.descriptor.method != cls.name:
            raise ArtifactError(
                f"state is for method {state.method!r} (descriptor "
                f"{state.descriptor.method!r}), loader is {cls.name}"
            )
        if state.graph.version != state.graph_version:
            raise ArtifactError(
                f"graph version {state.graph.version} does not match the "
                f"recorded version {state.graph_version}"
            )
        if state.algo_sp != "dijkstra":
            raise ArtifactError(
                f"unknown provider algorithm {state.algo_sp!r}")
        method = cls._load_sections(state)
        method.algo_sp = state.algo_sp
        method._synced_version = state.graph_version
        method._build_params = dict(state.build_params)
        method._publish_params = dict(state.publish_params)
        return method

    def _dump_sections(self, state: "MethodState") -> None:
        """Method-specific serve-state sections (arrays and blobs)."""
        raise MethodError(f"{self.name} does not implement dump_state")

    @classmethod
    def _load_sections(cls, state: "MethodState") -> "VerificationMethod":
        """Construct the instance from the sections; inverse of
        :meth:`_dump_sections`."""
        raise MethodError(f"{cls.name} does not implement load_state")

    # ------------------------------------------------------------------
    @classmethod
    @abstractmethod
    def build(
        cls,
        graph: SpatialGraph,
        signer: Signer,
        *,
        fanout: int = 2,
        ordering: str = "hbt",
        hash_name: str = "sha1",
        **params,
    ) -> "VerificationMethod":
        """Owner role: construct ADS + hints and sign the descriptor."""

    @abstractmethod
    def answer(self, source: int, target: int, *,
               forced_path: "Path | None" = None) -> QueryResponse:
        """Provider role: compute the path and assemble the proofs.

        ``forced_path`` is an adversarial-testing hook: when given, the
        provider reports that path (and builds proofs around its cost)
        instead of the true shortest path.  Honest providers leave it
        ``None``.
        """

    @classmethod
    def verify(
        cls,
        source: int,
        target: int,
        response: QueryResponse,
        verify_signature: SignatureVerifier,
        *,
        min_version: "int | None" = None,
    ) -> VerificationResult:
        """Client role: accept or reject a response.

        The one order every method checks in: the descriptor (method,
        owner signature, freshness), the sections the method reads
        (:meth:`decode_proof`), the Merkle root of every section the
        response carries, then the method's shortest path claim
        (:meth:`check`).  A section outside the signed descriptor is
        rejected, never ignored.

        ``min_version`` is the client's freshness floor: responses
        signed under an older graph version are rejected as stale
        replays (see :func:`repro.core.checks.verify_descriptor`).
        """
        failure = verify_descriptor(cls.name, response, verify_signature,
                                    min_version=min_version)
        if failure is not None:
            return failure
        try:
            proof = cls.decode_proof(response)
        except EncodingError as exc:
            return VerificationResult.failure(codes.MALFORMED_PROOF, str(exc))
        for section in response.sections.values():
            failure = verify_section_root(response.descriptor, section)
            if failure is not None:
                return failure
        return cls.check(source, target, response, proof)

    @classmethod
    @abstractmethod
    def decode_proof(cls, response: QueryResponse) -> Any:
        """Decode the sections :meth:`check` reads; raise
        :class:`~repro.errors.EncodingError` on any malformation."""

    @classmethod
    @abstractmethod
    def check(cls, source: int, target: int, response: QueryResponse,
              proof: Any) -> VerificationResult:
        """The shortest path claim, against tuples whose roots verified.

        *proof* is what :meth:`decode_proof` returned for *response*.
        """

    # ------------------------------------------------------------------
    @property
    def descriptor(self) -> SignedDescriptor:
        """The signed descriptor produced by :meth:`build`."""
        if self._descriptor is None:
            raise MethodError(f"{self.name}: build() has not completed")
        return self._descriptor

    @property
    def graph(self) -> SpatialGraph:
        """The provider's copy of the outsourced network.

        Exposed so serving layers can observe the graph's mutation
        counter (:attr:`~repro.graph.graph.SpatialGraph.version`) for
        cache invalidation without reaching into private state.
        """
        graph = getattr(self, "_graph", None)
        if graph is None:
            raise MethodError(f"{self.name}: build() has not completed")
        return graph


METHODS: dict[str, Type[VerificationMethod]] = {}


def register_method(cls: Type[VerificationMethod]) -> Type[VerificationMethod]:
    """Class decorator adding a method to the registry."""
    if cls.name in METHODS:
        raise MethodError(f"duplicate method name {cls.name!r}")
    METHODS[cls.name] = cls
    return cls


def get_method(name: str) -> Type[VerificationMethod]:
    """Registry lookup by paper name (DIJ, FULL, LDM, HYP)."""
    try:
        return METHODS[name]
    except KeyError:
        raise MethodError(
            f"unknown method {name!r}; available: {sorted(METHODS)}"
        ) from None
