"""LDM — landmark-based verification (paper §V-A).

The owner picks ``c`` landmarks, quantizes every node's landmark
distance vector to ``b`` bits (Lemma 3) and compresses vectors within
threshold ξ (Lemma 4).  The vector information rides inside each
extended tuple Φ(v) (Eq. 4) and is therefore authenticated by the
network Merkle tree.

The proof ΓS is the *A\\* cone* (Lemma 2): the nodes an A\\* search
under the signed bound can expand with keys up to ``dist(vs, vt)``
(plus a float margin), together with the tuples of their neighbors
and of every referenced representative node.  The client re-runs
A\\* over the disclosed subgraph using the same lower bound.

The quantized/compressed bound is admissible but *not consistent*, so
both parties' A\\* re-open nodes; admissibility alone then guarantees
that the target's first settlement is optimal.  Both run the one search
(:func:`~repro.shortestpath.kernel.search`): the provider over the graph
index, taking the bound only at the nodes it reaches, out to a margin
twice the client's, and discloses what it expanded: a
client pop is reachable by a route whose every prefix key stays within
the client's margin, so the provider expanded it too.  Under a
consistent bound this set is Lemma 2's ``dist(vs, v) + LB(v, vt) <=
dist(vs, vt)``; under the quantized one it is a subset, because a node
that only an over-limit prefix leads to is popped by no search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.checks import (
    NetworkTreeBundle,
    check_reported_path,
    resign_descriptor,
    sign_descriptor,
)
from repro.core.framework import VerificationResult, client_limit, distances_close
from repro.core.incremental import (
    affected_sources,
    edge_endpoints,
    needs_layout_rebuild,
)
from repro.core.method import (
    VerificationMethod,
    check_algo_sp,
    register_method,
)
from repro.core.proofs import NETWORK_TREE, QueryResponse, SignedDescriptor, TreeConfig
from repro.core.state import dump_bundle, load_bundle
from repro.crypto.signer import Signer
from repro.encoding import Decoder, Encoder, encode_uvarint, pack_codes_rows
from repro.errors import ArtifactError, EncodingError, GraphError
from repro.graph.graph import UPDATE_WEIGHT, GraphMutation, SpatialGraph
from repro.graph.tuples import LdmTuple, TupleColumns, decode_columns, unpack_codes
from repro.landmarks.compression import (
    CompressedVectors,
    apply_compression_plan,
    compress_exact_greedy,
    compress_leader,
    compression_plan,
    plan_indices,
    refresh_compression,
)
from repro.landmarks.quantization import (
    QuantizationSpec, quantize_values, quantize_vectors)
from repro.landmarks.selection import select_landmarks
from repro.landmarks.vectors import LandmarkVectors
from repro.order import hilbert_order
from repro.shortestpath.bulk import repair_distances
from repro.shortestpath.kernel import search
from repro.shortestpath.path import Path


@dataclass(frozen=True)
class LdmParams:
    """Signed LDM parameters (descriptor payload)."""

    landmarks: tuple[int, ...]
    bits: int
    d_max: float
    lam: float
    xi: float
    #: Δ, in weight units: how far the codes' graph G₀ may overstate a
    #: distance on the current graph.  The bound subtracts it last.
    slack: float = 0.0

    def encode(self) -> bytes:
        """Canonical encoding."""
        enc = Encoder()
        enc.write_uint_seq(self.landmarks)
        enc.write_uint(self.bits)
        enc.write_f64(self.d_max)
        enc.write_f64(self.lam)
        enc.write_f64(self.xi)
        enc.write_f64(self.slack)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "LdmParams":
        """Inverse of :meth:`encode`."""
        dec = Decoder(data)
        params = cls(
            landmarks=tuple(dec.read_uint_seq()),
            bits=dec.read_uint(),
            d_max=dec.read_f64(),
            lam=dec.read_f64(),
            xi=dec.read_f64(),
            slack=dec.read_f64(),
        )
        dec.expect_end()
        return params


def _slack(graph: SpatialGraph, drift: "dict[tuple[int, int], float]") -> float:
    """Δ = Σ max(0, w₀ − w) over the drifted edges: no path, and so no
    distance, got shorter than that since the codes' graph G₀.  ``fsum``
    makes it independent of the order the edges drifted in."""
    return math.fsum(max(0.0, w0 - graph.weight(u, v))
                     for (u, v), w0 in drift.items())


def _make_tuple_factory(graph: SpatialGraph, compressed: CompressedVectors,
                        bits: int):
    """Φ(v) encoder bound to one compression state.

    Shared by ``build`` and ``_apply_mutations`` so the incremental
    path re-encodes tuples exactly as a fresh build would.
    """

    def tuple_factory(node_id: int) -> LdmTuple:
        node = graph.node(node_id)
        adjacency = tuple(sorted(
            (int(v), float(w)) for v, w in graph.neighbors(node_id).items()
        ))
        if node_id in compressed.codes_of:
            return LdmTuple(
                node.id, node.x, node.y, adjacency,
                codes=tuple(int(code) for code in compressed.codes_of[node_id]),
                bits=bits,
            )
        theta, eps_units = compressed.ref_of[node_id]
        return LdmTuple(node.id, node.x, node.y, adjacency,
                        codes=None, ref_id=theta, eps_units=eps_units,
                        bits=bits)

    return tuple_factory


def _varint_len(value: int) -> int:
    """Encoded length of *value* as a varint (delegates to the encoder,
    so the header-splice suffix arithmetic can never drift from the
    wire format)."""
    return len(encode_uvarint(value))


def _encode_changed_payloads(
    bundle: NetworkTreeBundle,
    old_ref_of: "dict[int, tuple[int, int]]",
    compressed: CompressedVectors,
    bits: int,
    changed_nodes,
    endpoints,
    tuple_factory,
) -> "dict[int, bytes]":
    """Batch-encode Φ for the nodes a live update touched.

    Byte-identical to calling ``tuple_factory(node).encode()`` per
    node, but ~10x cheaper on the hot path: for a node whose adjacency
    did not change, the header bytes (id, coords, Φ edge list) are
    spliced straight out of its current payload — the old suffix
    length is computable from the old compression record (*old_ref_of*;
    absent means the node carried codes) — and the new code vectors are
    bit-packed in one vectorized pass
    (:func:`repro.encoding.pack_codes_rows`).  Mutated endpoints (and
    any node without a cached payload) fall back to the factory.
    """
    payloads: dict[int, bytes] = {}
    plain_nodes: list[int] = []
    headers: dict[int, bytes] = {}
    bits_prefix = encode_uvarint(bits)
    # Every code vector has the same landmark count, so the suffix of
    # an uncompressed payload has one constant length.
    c = len(next(iter(compressed.codes_of.values())))
    plain_suffix = 1 + _varint_len(bits) + _varint_len(c) + (c * bits + 7) // 8
    for node_id in sorted(changed_nodes):
        old_payload = bundle.payload_of.get(node_id)
        if node_id in endpoints or old_payload is None:
            payloads[node_id] = tuple_factory(node_id).encode()
            continue
        if node_id not in old_ref_of:
            suffix = plain_suffix
        else:
            theta, eps_units = old_ref_of[node_id]
            suffix = 1 + _varint_len(theta) + _varint_len(eps_units)
        header = old_payload[: len(old_payload) - suffix]
        if node_id in compressed.codes_of:
            plain_nodes.append(node_id)
            headers[node_id] = header
        else:
            theta, eps_units = compressed.ref_of[node_id]
            payloads[node_id] = b"".join((
                header, b"\x01",
                encode_uvarint(theta), encode_uvarint(eps_units),
            ))
    if plain_nodes:
        matrix = np.stack([compressed.codes_of[n] for n in plain_nodes])
        count_prefix = encode_uvarint(matrix.shape[1])
        for node_id, stream in zip(plain_nodes,
                                   pack_codes_rows(matrix, bits)):
            payloads[node_id] = b"".join((
                headers[node_id], b"\x00", bits_prefix, count_prefix, stream,
            ))
    return payloads


@register_method
class LdmMethod(VerificationMethod):
    """Landmark-based verification with quantization and compression."""

    name = "LDM"

    def __init__(self, graph: SpatialGraph, bundle: NetworkTreeBundle,
                 compressed: CompressedVectors, params: LdmParams,
                 descriptor: SignedDescriptor, *,
                 effective: "tuple[np.ndarray, np.ndarray] | None" = None,
                 ) -> None:
        super().__init__()
        self._graph = graph
        self._bundle = bundle
        self._compressed = compressed
        self._params = params
        self._descriptor = descriptor
        # Effective codes, (n, c) in the narrowest signed dtype, and ε
        # units, aligned with the graph index (ascending id order): the
        # search bound of :meth:`answer`, one row per node reached.  The
        # node set is fixed for the method's life (node additions force
        # a full rebuild), so the alignment is stable; weight updates
        # refresh the arrays in place.  Callers that already hold the
        # arrays (the artifact loader, via ``apply_compression_plan``)
        # pass them in instead of paying the per-node resolution again.
        if effective is None:
            effective = compressed.effective_arrays(graph.node_ids())
        self._eff_codes, self._eff_eps = effective
        #: The pinned plan as column arrays, derived at the first update.
        self._plan_index: "tuple[np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: SpatialGraph, signer: Signer, *, fanout: int = 2,
              ordering: str = "hbt", hash_name: str = "sha1",
              c: int = 100, bits: int = 12, xi: float = 50.0,
              landmark_strategy: str = "farthest", compressor: str = "leader",
              seed: int = 0, algo_sp: str = "dijkstra",
              landmarks: "tuple[int, ...] | None" = None,
              d_max: "float | None" = None,
              compression_plan_pin: "dict[int, int] | None" = None,
              drift_pin: "dict[tuple[int, int], float] | None" = None,
              **params) -> "LdmMethod":
        """Owner build; the ``landmarks`` / ``d_max`` /
        ``compression_plan_pin`` extras pin the three graph-global
        choices (placement, quantization grid, follower assignment) so
        a rebuild can reproduce an incrementally-updated method byte
        for byte — ``apply_update`` records them in the method's
        rebuild parameters automatically.  ``drift_pin`` maps each edge
        re-weighted since the last rebase to its weight then (the G₀ of
        the vectors); Δ covers the drift."""
        if params:
            raise EncodingError(f"LDM got unknown parameters {sorted(params)}")
        check_algo_sp(algo_sp)
        start = time.perf_counter()
        if landmarks is None:
            # Landmark placement is the expensive, graph-global choice;
            # passing an explicit tuple pins it (incremental updates
            # rebuild everything downstream of the vectors but keep the
            # original placement, so a comparison rebuild must too).
            landmarks = select_landmarks(graph, c, strategy=landmark_strategy,
                                         seed=seed)
        else:
            landmarks = sorted(int(v) for v in landmarks)
            for landmark in landmarks:
                if not graph.has_node(landmark):
                    raise GraphError(f"unknown landmark node {landmark}")
        drift = dict(drift_pin or {})
        base = graph.copy() if drift else graph
        for (u, v), w0 in drift.items():
            base.update_edge_weight(u, v, w0)
        vectors = LandmarkVectors(base, landmarks)
        spec = None
        if d_max is not None:
            spec = QuantizationSpec(bits=bits, d_max=d_max,
                                    lam=d_max / float((1 << bits) - 1))
        codes, spec = quantize_vectors(vectors.vectors, bits, spec=spec)
        ids = graph.node_ids()
        if compression_plan_pin is not None:
            compressed, _, _ = apply_compression_plan(
                ids, codes, spec, xi, compression_plan_pin)
            plan = dict(compression_plan_pin)
        else:
            if compressor == "leader":
                compressed = compress_leader(ids, codes, spec, xi,
                                             scan_order=hilbert_order(graph))
            elif compressor == "exact":
                compressed = compress_exact_greedy(ids, codes, spec, xi)
            else:
                raise EncodingError(f"unknown compressor {compressor!r}")
            plan = compression_plan(compressed)
        construction = time.perf_counter() - start

        ldm_params = LdmParams(
            landmarks=tuple(landmarks), bits=bits,
            d_max=spec.d_max, lam=spec.lam, xi=xi, slack=_slack(graph, drift),
        )
        bundle = NetworkTreeBundle(
            graph, _make_tuple_factory(graph, compressed, bits),
            ordering=ordering, fanout=fanout, hash_name=hash_name,
        )
        descriptor = sign_descriptor(
            SignedDescriptor(
                method=cls.name,
                hash_name=hash_name,
                params=ldm_params.encode(),
                trees=(TreeConfig(NETWORK_TREE, bundle.tree.num_leaves, fanout,
                                  bundle.tree.root),),
                version=graph.version,
            ),
            signer,
        )
        method = cls(graph, bundle, compressed, ldm_params, descriptor)
        method.construction_seconds = construction
        method.algo_sp = algo_sp
        method._synced_version = graph.version
        method._publish_params = dict(
            fanout=fanout, ordering=ordering, hash_name=hash_name,
            c=len(landmarks), bits=bits, xi=xi,
            landmark_strategy=landmark_strategy, compressor=compressor,
            seed=seed, algo_sp=algo_sp,
        )
        method._build_params = dict(
            method._publish_params,
            landmarks=tuple(landmarks), d_max=spec.d_max,
            compression_plan_pin=plan, drift_pin=drift,
        )
        # Update-path state: the exact vectors/codes behind the current
        # hints plus the pinned grid and follower plan.
        method._vectors = vectors.vectors
        method._codes = codes
        method._spec = spec
        method._plan = plan
        return method

    # ------------------------------------------------------------------
    # serve-state persistence
    # ------------------------------------------------------------------
    def _dump_sections(self, state) -> None:
        dump_bundle(state, self._bundle)
        # The exact vectors and quantized codes are the update-path
        # state: a loaded method re-derives the compression from the
        # pinned plan (cheap, vectorized), but absorbing future weight
        # changes needs the true landmark distances to diff against.
        state.arrays["ldm/vectors"] = self._vectors
        state.arrays["ldm/codes"] = self._codes

    @classmethod
    def _load_sections(cls, state) -> "LdmMethod":
        graph = state.graph
        try:
            params = LdmParams.decode(state.descriptor.params)
        except EncodingError as exc:
            raise ArtifactError(
                f"descriptor carries malformed LDM parameters: {exc}"
            ) from exc
        spec = QuantizationSpec(bits=params.bits, d_max=params.d_max,
                                lam=params.lam)
        plan = state.build_params.get("compression_plan_pin")
        if not isinstance(plan, dict):
            raise ArtifactError("build params carry no pinned compression plan")
        ids = graph.node_ids()
        known = set(ids)
        if not (set(plan) | set(plan.values())) <= known:
            raise ArtifactError(
                "pinned compression plan references unknown node ids"
            )
        try:
            if _slack(graph, state.build_params["drift_pin"]) != params.slack:
                raise ValueError("it does not reproduce the signed slack")
        except (AttributeError, GraphError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed drift record: {exc}") from exc
        c, n = len(params.landmarks), len(ids)
        vectors = state.array("ldm/vectors", dtype=np.float64, shape=(c, n))
        codes = state.array("ldm/codes", dtype=np.int32, shape=(c, n))
        # The compression is a pure function of (codes, spec, ξ, plan),
        # so re-deriving it here reproduces the dumped state exactly —
        # including the effective arrays, which come out for free.
        compressed, eff_codes, eff_eps = apply_compression_plan(
            ids, codes, spec, params.xi, plan)
        bundle = load_bundle(
            state, _make_tuple_factory(graph, compressed, params.bits))
        method = cls(graph, bundle, compressed, params, state.descriptor,
                     effective=(eff_codes, eff_eps))
        method._vectors = vectors
        method._codes = codes
        method._spec = spec
        method._plan = dict(plan)
        return method

    # ------------------------------------------------------------------
    def _apply_mutations(self, mutations: "list[GraphMutation]",
                         signer: Signer) -> tuple[str, int, int]:
        """Absorb re-weights as slack: the codes stay, admissible once
        the bound subtracts Δ (:func:`_slack`), so only the endpoint
        tuples re-encode before the re-sign.  The drift record lives in
        ``_build_params``: the server trims the changelog after every
        push.  An insertion, a removal or a Δ past ½ξ (where the cone
        grows ~15 %) rebases instead."""
        if needs_layout_rebuild(mutations, self._bundle.ordering):
            self._build_params["drift_pin"] = {}
            return self._rebuild(signer)
        graph = self._graph
        if all(m.kind == UPDATE_WEIGHT for m in mutations):
            drift = dict(self._build_params["drift_pin"])
            for m in mutations:
                drift.setdefault((min(m.u, m.v), max(m.u, m.v)), m.old_weight)
            drift = {e: w0 for e, w0 in drift.items() if graph.weight(*e) != w0}
            slack = _slack(graph, drift)
            if slack <= self._params.xi / 2:
                factory = _make_tuple_factory(graph, self._compressed,
                                              self._params.bits)
                patched = self._bundle.refresh_payloads({
                    n: factory(n).encode() for n in edge_endpoints(mutations)})
                self._build_params["drift_pin"] = drift
                self._params = replace(self._params, slack=slack)
                self._resign(signer)
                return "incremental", patched, 0
        return self._rebase(mutations, signer)

    def _rebase(self, mutations: "list[GraphMutation]",
                signer: Signer) -> tuple[str, int, int]:
        """Repair in place against the drift and the batch; Δ drops to 0.

        Landmark placement, the quantization grid (λ) and the
        compression plan are pinned from the original build — they are
        the expensive or signed graph-global choices.  What a weight
        change can actually move is re-derived narrowly: the landmark
        rows the batch can have touched are repaired, only the entries
        that moved re-quantize against the pinned grid, only the
        followers of a moved code column re-measure ε against their
        pinned representatives, and only the tuples whose encoding
        moved — changed code columns, changed compression records,
        mutated endpoints — re-hash into the network tree.  Every
        write lands after the last check that can reject the batch.
        Byte-for-byte equivalence is against a rebuild passing the same
        pins (exactly what :meth:`_rebuild` does via
        ``_build_params``).
        """
        graph = self._graph
        index = graph.to_index()
        ids = index.ids
        landmarks = self._params.landmarks
        # Each drifted edge moves from its weight at the last rebase;
        # listed first, that is the weight the repair diffs against.
        repair = [GraphMutation(UPDATE_WEIGHT, u, v, old_weight=w0,
                                weight=graph.weight(u, v)
                                if graph.has_edge(u, v) else w0)
                  for (u, v), w0 in self._build_params["drift_pin"].items()]
        repair += mutations
        # The index's ascending-id columns are the vectors' columns.
        affected = affected_sources(self._vectors, repair, index.index_of)
        rows, cols, values = repair_distances(
            index, self._vectors, affected,
            [landmarks[i] for i in affected.tolist()], repair)
        if np.isinf(values).any():
            raise GraphError(
                "graph is disconnected: landmark vectors contain infinite "
                "distances; restrict to the largest component first"
            )
        self._build_params["drift_pin"] = {}
        self._params = replace(self._params, slack=0.0)
        self._vectors[rows, cols] = values
        codes = quantize_values(values, self._spec)
        moved = codes != self._codes[rows, cols]
        self._codes[rows[moved], cols[moved]] = codes[moved]
        changed = np.unique(cols[moved])
        if self._plan_index is None:
            self._plan_index = plan_indices(index.index_of, self._plan)
        compressed = self._compressed
        old_ref_of = dict(compressed.ref_of)
        recorded = refresh_compression(
            compressed, self._eff_codes, self._eff_eps, ids, self._codes,
            self._params.xi, self._plan_index, changed)

        # Φ(v) changes iff its adjacency, its own code column (when it
        # carries codes) or its compression record moved.
        endpoints = edge_endpoints(mutations)
        changed_nodes = endpoints | recorded | {
            ids[j] for j in changed.tolist() if ids[j] in compressed.codes_of}
        bits = self._params.bits
        payloads = _encode_changed_payloads(
            self._bundle, old_ref_of, compressed, bits, changed_nodes,
            endpoints, _make_tuple_factory(graph, compressed, bits))
        patched = self._bundle.refresh_payloads(payloads)
        self._resign(signer)
        return "rebase", patched, 0

    def _resign(self, signer: Signer) -> None:
        """Sign the patched roots, the current Δ and the graph version."""
        self._synced_version = self._graph.version  # a failed re-sign replays from here
        old = self._descriptor
        self._descriptor = resign_descriptor(
            old, signer,
            trees=(TreeConfig(NETWORK_TREE, self._bundle.tree.num_leaves,
                              old.tree(NETWORK_TREE).fanout,
                              self._bundle.tree.root),),
            version=self._graph.version, params=self._params.encode(),
        )

    # ------------------------------------------------------------------
    def answer(self, source: int, target: int, *,
               forced_path: "Path | None" = None) -> QueryResponse:
        index = self._graph.to_index()
        t = index.index(target)
        lam, slack = self._params.lam, self._params.slack
        codes, eps = self._eff_codes, self._eff_eps
        code_t, eps_t = codes[t], int(eps[t])
        diff = np.empty_like(code_t)
        subtract, absolute, peak = np.subtract, np.absolute, np.maximum.reduce

        def bound(v: int) -> float:
            # Lemma 4 bound from node index v to the target: identical
            # float arithmetic to the client's ``_bounds_to``.
            subtract(codes[v], code_t, out=diff)
            units = int(peak(absolute(diff, out=diff)))
            loose = max(0.0, lam * (units - 1))
            return max(0.0, loose - lam * (int(eps[v]) + eps_t) - slack)

        path, cone = self._proof_search(source, target, forced_path, bound)
        ids = index.ids
        indptr = index.indptr
        nbrs = index.neighbors
        include: set[int] = {source, target}
        for u in cone.settled_order:
            include.add(ids[u])
            for k in range(indptr[u], indptr[u + 1]):
                include.add(ids[nbrs[k]])
        # Every included compressed node drags in its representative,
        # whose vector the client needs to evaluate the bound.
        for v in list(include):
            ref = self._compressed.ref_of.get(v)
            if ref is not None:
                include.add(ref[0])
        section = self._bundle.section_for(include)
        return QueryResponse(
            method=self.name,
            source=source,
            target=target,
            path_nodes=path.nodes,
            path_cost=path.cost,
            sections={NETWORK_TREE: section},
            descriptor=self._descriptor,
        )

    # ------------------------------------------------------------------
    @classmethod
    def decode_proof(cls, response: QueryResponse
                     ) -> "tuple[LdmParams, TupleColumns]":
        return (LdmParams.decode(response.descriptor.params),
                decode_columns(response.section(NETWORK_TREE).payloads, LdmTuple))

    @classmethod
    def check(cls, source: int, target: int, response: QueryResponse,
              proof: "tuple[LdmParams, TupleColumns]") -> VerificationResult:
        params, columns = proof
        failure = check_reported_path(source, target, response, columns)
        if failure is not None:
            return failure

        verdict = _search_cone(source, target, response.path_cost, columns, params)
        if isinstance(verdict, VerificationResult):
            return verdict
        if not distances_close(verdict, response.path_cost):
            return VerificationResult.failure(
                "not-optimal",
                f"subgraph A* distance {verdict} != reported {response.path_cost}",
            )
        return VerificationResult.success(distance=verdict, subgraph_nodes=len(columns))


def _bounds_to(target: int, columns: TupleColumns,
               params: LdmParams) -> "tuple[np.ndarray, np.ndarray]":
    """Lemma 4 bound from every row to row *target*, and which rows
    have one at all.

    A node's vector lives on its representative — itself, or θ when it
    is compressed — and is usable only if that row is disclosed,
    carries codes, and carries them at the signed width (the bits field
    travels with the codes, so it is checked on the row that supplies
    them) and at the target's length.  Same float arithmetic as
    ``lemma4_lower_bound``, one pass.
    """
    tail = columns.tail
    rep = np.where(tail["compressed"], columns.rows_of(tail["ref_id"]),
                   np.arange(len(columns)))
    width = int(tail["code_count"][rep[target]])
    carrier = (~tail["compressed"] & (tail["bits"] == params.bits)
               & (tail["code_count"] == width))
    rows = np.flatnonzero(carrier)
    codes = np.zeros((len(columns), width), dtype=np.int64)
    codes[rows] = unpack_codes(tail, rows, params.bits, width)
    units = np.abs(codes[rep] - codes[rep[target]]).max(axis=1, initial=0)
    loose = np.maximum(0.0, params.lam * (units - 1))
    eps = tail["eps_units"]
    return (np.maximum(0.0, loose - params.lam * (eps + eps[target])
                       - params.slack),
            (rep >= 0) & carrier[rep])


class _Unresolvable(Exception):
    """The client's search reached a row whose vector it cannot resolve."""


def _search_cone(source: int, target: int, reported: float,
                 columns: TupleColumns,
                 params: LdmParams) -> "float | VerificationResult":
    """Validity-checked A* (with re-opening) over the disclosed subgraph,
    whose endpoints the path check has proven disclosed."""
    start, goal = columns.row_of(source), columns.row_of(target)
    bound, resolvable = _bounds_to(goal, columns, params)
    for row, name in ((goal, "target"), (start, "source")):
        if not resolvable[row]:
            return VerificationResult.failure(
                "missing-representative",
                f"cannot resolve vector of {name} {columns.ids[row]}")
    bound, resolvable = bound.tolist(), resolvable.tolist()

    def bound_of(row: int) -> float:
        if not resolvable[row]:
            raise _Unresolvable(row)
        return bound[row]

    try:
        run = search(*columns.search_lists(), start, goal, bound=bound_of,
                     limit=client_limit(reported), gap=math.inf)
    except _Unresolvable as exc:
        return VerificationResult.failure(
            "missing-representative",
            f"cannot resolve vector of node {columns.ids[exc.args[0]]}",
        )
    if run.gap is not None:
        u, k, _ = run.gap
        return VerificationResult.failure(
            "incomplete-subgraph",
            f"neighbor {columns.nbr_ids[k]} of expanded node "
            f"{columns.ids[u]} was not disclosed",
        )
    if run.dist[goal] < math.inf:
        return run.dist[goal]
    if run.cut:
        return VerificationResult.failure(
            "not-optimal",
            f"every remaining route exceeds the reported distance {reported}",
        )
    return VerificationResult.failure(
        "target-unreachable",
        f"target {target} is unreachable in the disclosed subgraph",
    )
