"""Proof-size estimation model (the paper's stated future work).

The paper closes with: *"A promising future direction is to develop a
model for estimating the proof size for shortest path verification."*
This module implements such a model.  A data owner can use it to pick
a method and parameters *before* paying for hint construction; a
provider can use it for capacity planning.

The model combines

* a **ball profile** — the expected number of nodes within graph
  distance ``r`` of a random source, and the expected hop count of a
  shortest path of length ``r``, both estimated from a handful of
  cheap Dijkstra samples;
* **tuple statistics** — the mean encoded size of Φ(v) per method,
  measured exactly from the graph and the method parameters;
* a **Merkle cover model** — the expected number of ΓT digests for
  disclosing ``k`` of ``n`` leaves arranged in ``ρ`` contiguous-ish
  runs of a proximity-preserving order:
  ``cover ≈ ρ · (f-1) · max(1, log_f(n) - log_f(k/ρ))``.

Accuracy target (validated in the test suite): within a small constant
factor (~2x) of the measured proof size across methods and ranges —
good enough to rank methods and size links, which is what a sizing
model is for.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import MethodError
from repro.graph.graph import SpatialGraph
from repro.graph.tuples import BaseTuple
from repro.shortestpath.kernel import indexed_search

#: Digest size for SHA-1; parameterized in the entry points.
_DEFAULT_DIGEST = 20
#: Encoded size of one f64 + one varint id, roughly.
_DISTANCE_TUPLE_BYTES = 13
#: Fixed envelope: descriptor, signature, path ids.
_ENVELOPE_BYTES = 400


@dataclass(frozen=True)
class BallProfile:
    """Sampled distance structure of a graph.

    ``radii``/``ball_sizes`` tabulate the expected metric ball size;
    ``mean_hop_weight`` is the average edge weight along shortest
    paths, used to convert a range into an expected hop count.
    """

    radii: tuple[float, ...]
    ball_sizes: tuple[float, ...]
    mean_hop_weight: float
    num_nodes: int

    @classmethod
    def sample(cls, graph: SpatialGraph, *, num_sources: int = 8,
               seed: int = 0) -> "BallProfile":
        """Estimate the profile from ``num_sources`` full Dijkstra runs."""
        ids = graph.node_ids()
        if not ids:
            raise MethodError("cannot profile an empty graph")
        rng = random.Random(seed)
        sources = [ids[rng.randrange(len(ids))] for _ in range(num_sources)]
        all_sorted: list[list[float]] = []
        hop_weights: list[float] = []
        index = graph.to_index()
        for source in sources:
            result = indexed_search(index, source)
            distances = result.distances()
            all_sorted.append(sorted(distances.values()))
            # Depth of a handful of far nodes gives the mean hop weight.
            for node in list(distances)[-5:]:
                path = result.path_to(node)
                if path.num_edges:
                    hop_weights.append(path.cost / path.num_edges)
        diameter = max(d[-1] for d in all_sorted)
        radii = tuple(diameter * i / 40 for i in range(1, 41))
        sizes = []
        for r in radii:
            counts = [_count_leq(d, r) for d in all_sorted]
            sizes.append(sum(counts) / len(counts))
        mean_hop = sum(hop_weights) / len(hop_weights) if hop_weights else 1.0
        return cls(radii=radii, ball_sizes=tuple(sizes),
                   mean_hop_weight=mean_hop, num_nodes=len(ids))

    def ball(self, radius: float) -> float:
        """Expected number of nodes within *radius* of a random source."""
        if radius <= 0:
            return 1.0
        if radius >= self.radii[-1]:
            return self.ball_sizes[-1]
        # Linear interpolation on the tabulated profile.
        for i, r in enumerate(self.radii):
            if radius <= r:
                if i == 0:
                    return self.ball_sizes[0] * radius / r
                r0, r1 = self.radii[i - 1], r
                s0, s1 = self.ball_sizes[i - 1], self.ball_sizes[i]
                t = (radius - r0) / (r1 - r0)
                return s0 + t * (s1 - s0)
        return self.ball_sizes[-1]  # pragma: no cover

    def path_hops(self, distance: float) -> float:
        """Expected hop count of a shortest path of length *distance*."""
        return max(1.0, distance / self.mean_hop_weight)


def _count_leq(sorted_values: "list[float]", threshold: float) -> int:
    from bisect import bisect_right

    return bisect_right(sorted_values, threshold)


def cover_digests(disclosed: float, runs: float, leaves: int, fanout: int) -> float:
    """Expected ΓT digest count for a clustered disclosure set."""
    if leaves <= 1 or disclosed <= 0:
        return 0.0
    disclosed = min(disclosed, leaves)
    runs = max(1.0, min(runs, disclosed))
    run_len = disclosed / runs
    depth_total = math.log(leaves, fanout)
    depth_within = math.log(max(run_len, 1.0), fanout)
    per_run = (fanout - 1) * max(1.0, depth_total - depth_within)
    return runs * per_run


def mean_tuple_bytes(graph: SpatialGraph, *, sample: int = 200,
                     vector_bytes: float = 0.0, seed: int = 0) -> float:
    """Mean encoded Φ(v) size, plus any per-tuple vector payload."""
    ids = graph.node_ids()
    rng = random.Random(seed)
    chosen = [ids[rng.randrange(len(ids))] for _ in range(min(sample, len(ids)))]
    sizes = [len(BaseTuple.from_graph(graph, v).encode()) for v in chosen]
    return sum(sizes) / len(sizes) + vector_bytes


@dataclass
class ProofSizeModel:
    """Per-method proof size predictions in bytes.

    Build once per (graph, parameters) via :meth:`for_graph`, then call
    :meth:`predict` for any query range.  ``digest`` is the hash size
    in bytes; ``fanout`` the Merkle fanout.
    """

    profile: BallProfile
    phi_bytes: float
    fanout: int
    digest: int
    num_nodes: int
    # LDM: fraction of the Dijkstra ball surviving the A* pruning, and
    # fraction of nodes whose vectors compress away (both calibrated on
    # DCW-like networks with farthest landmarks; see tests).
    ldm_c: int = 100
    ldm_bits: int = 12
    ldm_compression_ratio: float = 0.3
    ldm_pruning: float = 0.12
    # HYP: fraction of a cell's nodes that are border nodes at p=100 on
    # chain-heavy road networks.
    hyp_cells: int = 100
    hyp_border_fraction: float = 0.25

    @classmethod
    def for_graph(cls, graph: SpatialGraph, *, fanout: int = 2,
                  digest: int = _DEFAULT_DIGEST, ldm_c: int = 100,
                  ldm_bits: int = 12, hyp_cells: int = 100,
                  seed: int = 0) -> "ProofSizeModel":
        """Profile *graph* and return a ready model."""
        profile = BallProfile.sample(graph, seed=seed)
        return cls(
            profile=profile,
            phi_bytes=mean_tuple_bytes(graph, seed=seed),
            fanout=fanout,
            digest=digest,
            num_nodes=graph.num_nodes,
            ldm_c=ldm_c,
            ldm_bits=ldm_bits,
            hyp_cells=hyp_cells,
        )

    # ------------------------------------------------------------------
    def _network_cover_bytes(self, disclosed: float, runs: float) -> float:
        return self.digest * cover_digests(disclosed, runs,
                                           self.num_nodes, self.fanout)

    def predict(self, method: str, query_range: float) -> float:
        """Predicted total proof bytes for one query at *query_range*."""
        try:
            fn = {
                "DIJ": self._predict_dij,
                "FULL": self._predict_full,
                "LDM": self._predict_ldm,
                "HYP": self._predict_hyp,
            }[method]
        except KeyError:
            raise MethodError(f"unknown method {method!r}") from None
        return fn(query_range)

    def _predict_dij(self, r: float) -> float:
        # Two half-balls, B_s(r/2) and B_t(r/2).  Each is spatially
        # compact: a proximity-preserving leaf order packs it into
        # roughly sqrt-ball runs.
        half = self.profile.ball(r / 2)
        runs = 2 * max(1.0, math.sqrt(half))
        return (2 * half * self.phi_bytes
                + self._network_cover_bytes(2 * half, runs)
                + _ENVELOPE_BYTES)

    def _predict_full(self, r: float) -> float:
        hops = self.profile.path_hops(r)
        pairs = self.num_nodes * (self.num_nodes - 1) / 2
        dist_cover = self.digest * cover_digests(1, 1, max(2, int(pairs)),
                                                 self.fanout)
        return (hops * self.phi_bytes                      # path tuples
                + self._network_cover_bytes(hops, max(1.0, hops / 4))
                + _DISTANCE_TUPLE_BYTES + dist_cover
                + _ENVELOPE_BYTES)

    def _predict_ldm(self, r: float) -> float:
        cone = max(self.profile.path_hops(r),
                   self.profile.ball(r) * self.ldm_pruning)
        vector_bytes = self.ldm_c * self.ldm_bits / 8
        uncompressed = 1.0 - self.ldm_compression_ratio
        per_tuple = self.phi_bytes + uncompressed * vector_bytes + 6
        runs = max(1.0, math.sqrt(cone))
        return (cone * per_tuple
                + self._network_cover_bytes(cone, runs)
                + _ENVELOPE_BYTES)

    def _predict_hyp(self, r: float) -> float:
        cell_nodes = self.num_nodes / self.hyp_cells
        borders = max(1.0, cell_nodes * self.hyp_border_fraction)
        cross_pairs = borders * borders
        hops = self.profile.path_hops(r)
        intermediate = max(0.0, hops - cell_nodes / 2)
        disclosed = 2 * cell_nodes + intermediate
        total_borders = self.num_nodes * self.hyp_border_fraction
        hyper_leaves = max(2.0, total_borders * (total_borders - 1) / 2)
        # The query's hyper-edges are one tile: a single leaf run.
        hyper_cover = self.digest * cover_digests(
            cross_pairs, 1, int(hyper_leaves), self.fanout
        )
        return (disclosed * self.phi_bytes
                + cross_pairs * _DISTANCE_TUPLE_BYTES
                + hyper_cover
                + self._network_cover_bytes(disclosed, 2 + intermediate / 4)
                + _ENVELOPE_BYTES)

    def rank(self, query_range: float) -> "list[tuple[str, float]]":
        """Methods sorted by predicted proof size (ascending)."""
        names = ("DIJ", "FULL", "LDM", "HYP")
        return sorted(((n, self.predict(n, query_range)) for n in names),
                      key=lambda pair: pair[1])
