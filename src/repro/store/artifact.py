"""Method-level artifact operations: save, load, inspect.

:func:`save_method` maps a method's
:class:`~repro.core.state.MethodState` onto the ``.rspv`` pack —
graph sections first (node coordinates and edge arrays, enough to
rehydrate the provider's :class:`~repro.graph.graph.SpatialGraph`
without the original input file), then the per-method sections.
:func:`load_method` is the inverse and returns a serving-capable
method whose descriptor and responses are byte-identical to the dumped
method's.

The rehydrated graph starts at the signed graph version with an empty
history (:meth:`~repro.graph.graph.SpatialGraph.from_parts`), so the
loaded method plugs into every existing consumer unchanged: the proof
cache keys on the same version, ``apply_update`` absorbs future owner
mutations incrementally, and a re-``pack`` after updates emits the next
artifact version for the PR-4 wire descriptor flow to announce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.method import VerificationMethod, get_method
from repro.core.proofs import SignedDescriptor
from repro.core.state import MethodState
from repro.errors import ArtifactError, EncodingError, MethodError
from repro.graph.graph import SpatialGraph
from repro.store.pack import (
    ARTIFACT_MAGIC,
    ArtifactReader,
    ArtifactWriter,
    KIND_BYTES,
    SectionInfo,
    file_digest,
)


def save_method(method: VerificationMethod, path: str) -> None:
    """Freeze a built method into one ``.rspv`` artifact file.

    Pure function of the method's state: packing the same build twice
    yields byte-identical files (see :func:`artifact_info` for the
    digest).  The signer is not involved — the descriptor inside the
    pack is the one signed at build/update time.
    """
    state = method.dump_state()
    writer = ArtifactWriter(
        method=state.method,
        graph_version=state.graph_version,
        algo_sp=state.algo_sp,
        build_params=state.build_params,
        publish_params=state.publish_params,
        descriptor_bytes=state.descriptor.encode(),
    )
    for name, array in _graph_sections(state.graph).items():
        writer.add_array(name, array)
    for name, array in state.arrays.items():
        writer.add_array(name, array)
    for name, blob in state.blobs.items():
        writer.add_bytes(name, blob)
    writer.write(path)


def load_method(path: str, *, expect_method: "str | None" = None,
                mmap: bool = True, verify: bool = True) -> VerificationMethod:
    """Reconstruct a serving-capable method from an artifact.

    ``mmap=True`` (default) maps the numeric sections copy-on-write —
    cold start touches almost none of the big sections, and
    processes loading the same file share one page-cached copy.
    ``verify=True`` checks every section digest up front; disabling it
    is only sensible for files this very process just wrote.

    Raises :class:`~repro.errors.ArtifactError` — and only that — for
    any corrupted, truncated, tampered or incompatible artifact.
    """
    reader = ArtifactReader(path, verify=verify,
                            mmap_mode="c" if mmap else None)
    if expect_method is not None and reader.method != expect_method:
        raise ArtifactError(
            f"artifact serves method {reader.method!r}, expected "
            f"{expect_method!r}"
        )
    try:
        cls = get_method(reader.method)
    except MethodError as exc:
        raise ArtifactError(str(exc)) from exc
    try:
        descriptor = SignedDescriptor.decode(reader.descriptor_bytes)
    except EncodingError as exc:
        raise ArtifactError(f"artifact descriptor does not decode: {exc}") from exc
    graph = _restore_graph(reader)
    state = MethodState(
        method=reader.method,
        graph=graph,
        graph_version=reader.graph_version,
        descriptor=descriptor,
        build_params=reader.build_params,
        publish_params=reader.publish_params,
        algo_sp=reader.algo_sp,
        arrays={name: reader.array(name) for name, info in
                reader.sections.items()
                if info.kind != KIND_BYTES and not name.startswith("graph/")},
        blobs={name: reader.view(name) for name, info in
               reader.sections.items() if info.kind == KIND_BYTES},
    )
    method = cls.load_state(state)
    # Mapped sections borrow the reader's buffer; pin it to the method
    # so the mapping lives exactly as long as the views into it.
    method._artifact_reader = reader
    return method


# ----------------------------------------------------------------------
# Graph sections
# ----------------------------------------------------------------------
def _graph_sections(graph: SpatialGraph) -> "dict[str, np.ndarray]":
    """The graph as six aligned arrays (ascending ids, sorted edges)."""
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    return {
        "graph/ids": np.array([n.id for n in nodes], dtype=np.int64),
        "graph/x": np.array([n.x for n in nodes], dtype=np.float64),
        "graph/y": np.array([n.y for n in nodes], dtype=np.float64),
        "graph/edge_u": np.array([e[0] for e in edges], dtype=np.int64),
        "graph/edge_v": np.array([e[1] for e in edges], dtype=np.int64),
        "graph/edge_w": np.array([e[2] for e in edges], dtype=np.float64),
    }


def _restore_graph(reader: ArtifactReader) -> SpatialGraph:
    """Rehydrate the provider's graph at the signed version.

    Validation is vectorized (the node/edge arrays are the canonical
    ascending layout :func:`_graph_sections` wrote, so checking
    monotonicity checks uniqueness and ordering at once), and the
    graph is then bulk-installed through
    :meth:`~repro.graph.graph.SpatialGraph.from_parts` — the
    per-operation ``add_edge`` path would dominate artifact cold-start
    on large networks.
    """
    ids = reader.array("graph/ids")
    xs = reader.array("graph/x")
    ys = reader.array("graph/y")
    eu = reader.array("graph/edge_u")
    ev = reader.array("graph/edge_v")
    ew = reader.array("graph/edge_w")
    if not (ids.ndim == xs.ndim == ys.ndim == 1
            and ids.shape == xs.shape == ys.shape):
        raise ArtifactError("graph node sections disagree on their shape")
    if not (eu.ndim == ev.ndim == ew.ndim == 1
            and eu.shape == ev.shape == ew.shape):
        raise ArtifactError("graph edge sections disagree on their shape")
    if ids.size == 0:
        raise ArtifactError("artifact graph has no nodes")
    if ids.size > 1 and not np.all(np.diff(ids) > 0):
        raise ArtifactError("graph node ids are not strictly increasing")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ArtifactError("graph coordinates are not finite")
    if eu.size:
        if not np.all(eu < ev):
            raise ArtifactError(
                "graph edges are not in canonical (u < v) form"
            )
        if not (np.isin(eu, ids).all() and np.isin(ev, ids).all()):
            raise ArtifactError("graph edge references an unknown node")
        if not np.isfinite(ew).all() or np.any(ew < 0):
            raise ArtifactError("graph edge weights are not finite and >= 0")
        # Strict lexicographic (u, v) order implies uniqueness; compared
        # component-wise — a combined u*span+v key would overflow int64
        # for large (e.g. OSM-style) node ids.
        du, dv = np.diff(eu), np.diff(ev)
        if not np.all((du > 0) | ((du == 0) & (dv > 0))):
            raise ArtifactError(
                "graph edges are not strictly sorted (duplicate edge?)"
            )
    return SpatialGraph.from_parts(
        zip(ids.tolist(), xs.tolist(), ys.tolist()),
        zip(eu.tolist(), ev.tolist(), ew.tolist()),
        version=reader.graph_version,
    )


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactInfo:
    """What ``repro-spv info`` prints for an artifact file."""

    path: str
    method: str
    graph_version: int
    descriptor_version: int
    hash_name: str
    algo_sp: str
    content_digest: bytes
    tree_roots: tuple[tuple[str, bytes], ...]
    sections: tuple[SectionInfo, ...]

    @property
    def total_bytes(self) -> int:
        """Sum of section payload sizes (excluding header/padding)."""
        return sum(info.length for info in self.sections)


def is_artifact(path: str) -> bool:
    """Whether *path* starts with the ``.rspv`` magic (cheap sniff)."""
    try:
        with open(path, "rb") as infile:
            return infile.read(len(ARTIFACT_MAGIC)) == ARTIFACT_MAGIC
    except OSError:
        return False


def artifact_info(path: str, *, verify: bool = True) -> ArtifactInfo:
    """Parse an artifact's header (and optionally verify its sections)."""
    reader = ArtifactReader(path, verify=verify, mmap_mode="c")
    try:
        try:
            descriptor = SignedDescriptor.decode(reader.descriptor_bytes)
        except EncodingError as exc:
            raise ArtifactError(
                f"artifact descriptor does not decode: {exc}"
            ) from exc
        return ArtifactInfo(
            path=path,
            method=reader.method,
            graph_version=reader.graph_version,
            descriptor_version=descriptor.version,
            hash_name=descriptor.hash_name,
            algo_sp=reader.algo_sp,
            content_digest=file_digest(path),
            tree_roots=tuple((t.name, t.root) for t in descriptor.trees),
            sections=tuple(reader.sections.values()),
        )
    finally:
        reader.close()
