"""Build-state vs. serve-state: the methods' persistence surface.

The paper's owner builds and signs **once, offline**; everything a
provider needs afterwards is the *serve state* — the signed descriptor,
the authenticated structures and the per-method answer tables — none
of which requires the signer, and none of which should be recomputed
on every process start.  :class:`MethodState` is that serve state as a
plain in-memory container: named numpy arrays and byte blobs plus the
common metadata every method shares.

``VerificationMethod.dump_state`` fills one of these from a built
method; ``load_state`` reconstructs a serving-capable method from it.
The container stays file-format-agnostic on purpose: the
:mod:`repro.store` pack maps it to and from the on-disk ``.rspv``
layout, and tests can round-trip through it without touching a disk.

Validation here raises :class:`~repro.errors.ArtifactError` only —
state arriving from disk is untrusted input, and the loader's contract
is typed rejection, never a stray ``KeyError``/``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ArtifactError
from repro.merkle.tree import MerkleTree

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.checks import NetworkTreeBundle
    from repro.core.proofs import SignedDescriptor
    from repro.graph.graph import SpatialGraph


@dataclass
class MethodState:
    """Everything needed to reconstruct a serving-capable method.

    ``graph`` is the provider's copy of the network (live on dump, a
    rehydrated :class:`~repro.graph.graph.SpatialGraph` fast-forwarded
    to ``graph_version`` on load).  ``arrays`` holds numpy sections
    (zero-copy mmap views on load), ``blobs`` raw byte sections
    (``bytes`` on dump, views of the mapped file on load).
    ``build_params`` carries the pinned rebuild arguments,
    ``publish_params`` the user-facing ones — exactly the split
    :meth:`~repro.core.method.VerificationMethod.build` records.
    """

    method: str
    graph: "SpatialGraph"
    graph_version: int
    descriptor: "SignedDescriptor"
    build_params: dict
    publish_params: dict
    algo_sp: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    blobs: "dict[str, bytes | memoryview]" = field(default_factory=dict)

    # ------------------------------------------------------------------
    def array(self, name: str, *, dtype=None,
              shape: "tuple | None" = None) -> np.ndarray:
        """Fetch an array section, validating dtype/shape when given."""
        arr = self.arrays.get(name)
        if arr is None:
            raise ArtifactError(f"artifact is missing array section {name!r}")
        if dtype is not None and arr.dtype != np.dtype(dtype):
            raise ArtifactError(
                f"section {name!r} has dtype {arr.dtype}, expected {np.dtype(dtype)}"
            )
        if shape is not None and tuple(arr.shape) != tuple(shape):
            raise ArtifactError(
                f"section {name!r} has shape {tuple(arr.shape)}, "
                f"expected {tuple(shape)}"
            )
        return arr

    def blob(self, name: str) -> "bytes | memoryview":
        """Fetch a byte-blob section."""
        data = self.blobs.get(name)
        if data is None:
            raise ArtifactError(f"artifact is missing byte section {name!r}")
        return data


# ----------------------------------------------------------------------
# Shared section helpers
# ----------------------------------------------------------------------
def join_payloads(payloads: "list[bytes]") -> "tuple[bytes, np.ndarray]":
    """Concatenate payloads into ``(blob, offsets)``.

    ``offsets`` has ``len(payloads) + 1`` entries; payload ``i`` is
    ``blob[offsets[i]:offsets[i + 1]]``.
    """
    offsets = np.zeros(len(payloads) + 1, dtype=np.uint64)
    if payloads:
        offsets[1:] = np.cumsum([len(p) for p in payloads])
    return b"".join(payloads), offsets


def split_payloads(blob: "bytes | memoryview",
                   offsets: np.ndarray) -> "list[bytes]":
    """Inverse of :func:`join_payloads`, with strict bounds checking."""
    if offsets.ndim != 1 or offsets.size == 0:
        raise ArtifactError("payload offset table must be a non-empty vector")
    ends = offsets.astype(np.int64, copy=False)
    if ends[0] != 0 or np.any(np.diff(ends) < 0) or int(ends[-1]) != len(blob):
        raise ArtifactError(
            "payload offsets are not a monotone cover of the payload blob"
        )
    bounds = ends.tolist()
    return [bytes(blob[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)]


def dump_bundle(state: MethodState, bundle: "NetworkTreeBundle",
                prefix: str = "network") -> None:
    """Serialize a network-tree bundle into *state* sections.

    Payloads are stored verbatim (they are the hash inputs — re-encoding
    them on load would cost the one thing the artifact exists to skip)
    and the tree as its flat level-order digest array.
    """
    blob, offsets = join_payloads(bundle.payload_at)
    state.arrays[f"{prefix}/order"] = np.asarray(bundle.order, dtype=np.int64)
    state.arrays[f"{prefix}/payload_offsets"] = offsets
    state.blobs[f"{prefix}/payloads"] = blob
    state.blobs[f"{prefix}/tree"] = bundle.tree.dump_state()


def load_bundle(state: MethodState, tuple_factory,
                prefix: str = "network") -> "NetworkTreeBundle":
    """Reconstruct a network-tree bundle from *state* sections.

    Strict: the leaf order must be a permutation of the graph's node
    ids, payload count and tree shape must agree with the signed
    descriptor, and the rehydrated root must equal the signed root —
    any mismatch is an :class:`ArtifactError`.
    """
    from repro.core.checks import NetworkTreeBundle
    from repro.core.proofs import NETWORK_TREE

    config = state.descriptor.tree(NETWORK_TREE)
    tree = _load_tree(state, f"{prefix}/tree", config, state.descriptor.hash_name)
    order = state.array(f"{prefix}/order", dtype=np.int64).tolist()
    offsets = state.array(f"{prefix}/payload_offsets", dtype=np.uint64,
                          shape=(len(order) + 1,))
    payloads = split_payloads(state.blob(f"{prefix}/payloads"), offsets)
    if len(order) != config.num_leaves:
        raise ArtifactError(
            f"bundle has {len(order)} leaves, descriptor says {config.num_leaves}"
        )
    if sorted(order) != state.graph.node_ids():
        raise ArtifactError(
            "bundle leaf order is not a permutation of the graph's node ids"
        )
    ordering = state.build_params.get("ordering")
    if not isinstance(ordering, str):
        raise ArtifactError("build params carry no leaf ordering")
    return NetworkTreeBundle.from_state(
        state.graph, tuple_factory, ordering=ordering,
        order=order, payloads=payloads, tree=tree,
    )


def _load_tree(state: MethodState, section: str, config,
               hash_name: str) -> MerkleTree:
    """Rehydrate one ADS tree and cross-check it against its signed shape."""
    from repro.errors import MerkleError

    try:
        tree = MerkleTree.load_state(
            state.blob(section), num_leaves=config.num_leaves,
            fanout=config.fanout, hash_fn=hash_name,
        )
    except MerkleError as exc:
        raise ArtifactError(f"section {section!r}: {exc}") from exc
    if tree.root != config.root:
        raise ArtifactError(
            f"section {section!r}: rehydrated root does not match the "
            f"signed root for tree {config.name!r}"
        )
    return tree


def load_descriptor_tree(state: MethodState, section: str,
                         tree_name: str) -> MerkleTree:
    """Rehydrate the ADS called *tree_name* from the *section* blob."""
    from repro.errors import EncodingError

    try:
        config = state.descriptor.tree(tree_name)
    except EncodingError as exc:
        raise ArtifactError(str(exc)) from exc
    return _load_tree(state, section, config, state.descriptor.hash_name)
