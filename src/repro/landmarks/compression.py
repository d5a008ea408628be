"""Compression of quantized distance vectors (paper §V-A, Lemma 4).

A node ``v`` may be *compressed*: instead of storing its code vector it
stores a reference node ``v.θ`` and a compression error
``v.ε = Δ(v, v.θ)``, where ``Δ(u, w) = max_i |dist_b(s_i, u) -
dist_b(s_i, w)|``.  The owner guarantees ``ε <= ξ``.  Lemma 4 then
gives a valid (looser) lower bound from the representatives' vectors::

    dist^loose_LB(v.θ, v'.θ) - (v.ε + v'.ε)  <=  dist^loose_LB(v, v')

Two construction algorithms are provided:

* :func:`compress_exact_greedy` — the paper's algorithm: each round
  picks the representative covering the most uncompressed nodes.
  Quadratic per round; intended for small/medium graphs.
* :func:`compress_leader` — a vectorized first-fit scan in Hilbert
  order: a node joins the first existing representative within ξ, else
  becomes a representative.  Near-linear; used at benchmark scale.

Both guarantee the ``ε <= ξ`` invariant that Lemma 4's soundness rests
on; they differ only in how many nodes end up compressed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.landmarks.quantization import QuantizationSpec


def lemma4_lower_bound(
    codes_u: np.ndarray,
    eps_units_u: int,
    codes_v: np.ndarray,
    eps_units_v: int,
    lam: float,
) -> float:
    """Lemma 4 lower bound from two *representative* code vectors.

    ``codes_*`` are the (quantized) vectors of the nodes' representatives
    (a node acting as its own representative has ε = 0).  The provider
    and the client both call this exact function, so their pruning
    decisions agree bit for bit.
    """
    units = int(np.abs(codes_u - codes_v).max())
    loose = max(0.0, lam * (units - 1))
    return max(0.0, loose - lam * (eps_units_u + eps_units_v))


@dataclass
class CompressedVectors:
    """Output of vector compression.

    For every node id exactly one holds:

    * ``node_id in codes_of`` — the node keeps its own quantized code
      vector (it is a representative or was left uncompressed);
    * ``node_id in ref_of`` — the node is compressed; the value is
      ``(θ id, ε in λ units)``.
    """

    spec: QuantizationSpec
    codes_of: dict[int, np.ndarray] = field(default_factory=dict)
    ref_of: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def num_compressed(self) -> int:
        """How many nodes reference a representative."""
        return len(self.ref_of)

    def effective(self, node_id: int) -> "tuple[np.ndarray, int]":
        """``(representative codes, ε units)`` for any node.

        Uncompressed nodes are their own representative with ε = 0.
        """
        if node_id in self.codes_of:
            return self.codes_of[node_id], 0
        theta, eps_units = self.ref_of[node_id]
        return self.codes_of[theta], eps_units

    def lower_bound(self, u: int, v: int) -> float:
        """Lemma 4 lower bound on ``dist(u, v)`` (clipped at zero)."""
        codes_u, eps_u = self.effective(u)
        codes_v, eps_v = self.effective(v)
        return lemma4_lower_bound(codes_u, eps_u, codes_v, eps_v, self.spec.lam)

    def effective_arrays(self, ids: "list[int]") -> "tuple[np.ndarray, np.ndarray]":
        """Dense ``(codes, eps_units)`` arrays aligned with *ids*.

        ``codes`` is ``(len(ids), c)`` in the narrowest signed dtype
        that holds a code difference (each row the node's
        representative vector), ``eps_units`` is ``(len(ids),)``
        int64.  This is the dense form of :meth:`effective` that the
        provider's A* reads its search bound from; values match
        :meth:`lower_bound` bit for bit.
        """
        c = len(next(iter(self.codes_of.values())))
        codes = np.empty((len(ids), c), dtype=_code_dtype(self.spec.bits))
        eps_units = np.empty(len(ids), dtype=np.int64)
        for i, node_id in enumerate(ids):
            row, eps = self.effective(node_id)
            codes[i] = row
            eps_units[i] = eps
        return codes, eps_units


def _code_dtype(bits: int) -> np.dtype:
    """Narrowest signed dtype holding ±(2^bits − 1): a difference of
    two codes never overflows it (int16 at 12 bits)."""
    return np.min_scalar_type(-((1 << bits) - 1))


def _xi_units(xi: float, spec: QuantizationSpec) -> int:
    if xi < 0:
        raise GraphError(f"compression threshold must be >= 0, got {xi}")
    return int(xi / spec.lam) if spec.lam > 0 else 0


def compress_exact_greedy(
    ids: "list[int]",
    codes: np.ndarray,
    spec: QuantizationSpec,
    xi: float,
) -> CompressedVectors:
    """The paper's greedy: maximize coverage per representative.

    ``codes`` is the ``(c, n)`` int32 matrix aligned with ``ids``.
    Each round computes, for every remaining candidate, how many
    remaining nodes lie within ξ (in Δ terms), picks the best, and
    assigns.  Stops when no representative can cover anyone but
    itself.
    """
    xi_units = _xi_units(xi, spec)
    n = len(ids)
    result = CompressedVectors(spec=spec)
    remaining = np.arange(n)
    cols = codes.T  # (n, c) for row-wise access

    while remaining.size > 1:
        sub = cols[remaining]  # (m, c)
        # Pairwise Chebyshev distances among remaining nodes, in units.
        diff = np.abs(sub[:, None, :] - sub[None, :, :]).max(axis=2)
        coverage = (diff <= xi_units).sum(axis=1)
        best = int(np.argmax(coverage))
        if int(coverage[best]) <= 1:
            break
        rep_pos = int(remaining[best])
        rep_id = ids[rep_pos]
        result.codes_of[rep_id] = cols[rep_pos]
        member_mask = diff[best] <= xi_units
        for local_idx in np.nonzero(member_mask)[0]:
            pos = int(remaining[local_idx])
            if pos == rep_pos:
                continue
            result.ref_of[ids[pos]] = (rep_id, int(diff[best][local_idx]))
        remaining = remaining[~member_mask]

    for pos in remaining:
        pos = int(pos)
        result.codes_of[ids[pos]] = cols[pos]
    return result


def compression_plan(compressed: CompressedVectors) -> "dict[int, int]":
    """The follower → representative assignment behind a compression.

    The *plan* is the scan's expensive output; the ε values are cheap
    functions of the current codes.  Pinning the plan (like pinning the
    landmark set) lets the live-update path refresh a compression in a
    few vectorized operations — see :func:`apply_compression_plan`.
    """
    return {node_id: theta for node_id, (theta, _) in compressed.ref_of.items()}


def apply_compression_plan(
    ids: "list[int]",
    codes: np.ndarray,
    spec: QuantizationSpec,
    xi: float,
    plan: "dict[int, int]",
) -> "tuple[CompressedVectors, np.ndarray, np.ndarray]":
    """Re-derive a compression from a pinned plan and fresh codes.

    Every planned follower is re-measured against its representative:
    within ξ it stays compressed with the recomputed (honest) ε; drifted
    beyond ξ it is *promoted* to carrying its own codes, so the ε ≤ ξ
    invariant Lemma 4 rests on holds unconditionally.  Promoted nodes do
    not become representatives for anyone else, so the result is a pure
    function of ``(ids, codes, spec, xi, plan)`` — a rebuild given the
    same plan reproduces it byte for byte.  On the codes that produced
    the plan, the output equals the original scan's output exactly.

    Returns ``(compressed, eff_codes, eff_eps)`` where the ``eff_*``
    arrays equal ``compressed.effective_arrays(ids)`` (computed here
    for free from the plan's index arrays).
    """
    xi_units = _xi_units(xi, spec)
    cols = np.ascontiguousarray(codes.T)
    index_of = {node_id: i for i, node_id in enumerate(ids)}
    result = CompressedVectors(spec=spec)
    eff_codes = cols.astype(_code_dtype(spec.bits))
    eff_eps = np.zeros(len(ids), dtype=np.int64)
    planned = sorted(plan)
    if planned:
        follower_idx, rep_idx = plan_indices(index_of, plan)
        deltas = _follower_deltas(cols, follower_idx, rep_idx)
        kept = deltas <= xi_units
        for k, follower in enumerate(planned):
            if kept[k]:
                result.ref_of[follower] = (plan[follower], int(deltas[k]))
            else:
                result.codes_of[follower] = cols[follower_idx[k]]
        eff_codes[follower_idx[kept]] = cols[rep_idx[kept]]
        eff_eps[follower_idx[kept]] = deltas[kept]
    in_plan = set(plan)
    for i, node_id in enumerate(ids):
        if node_id not in in_plan:
            result.codes_of[node_id] = cols[i]
    return result, eff_codes, eff_eps


def plan_indices(index_of: "dict[int, int]",
                 plan: "dict[int, int]") -> "tuple[np.ndarray, np.ndarray]":
    """``(follower, representative)`` column arrays of *plan*, by follower id."""
    planned = sorted(plan)
    return (np.fromiter((index_of[f] for f in planned), dtype=np.intp,
                        count=len(planned)),
            np.fromiter((index_of[plan[f]] for f in planned), dtype=np.intp,
                        count=len(planned)))


def _follower_deltas(cols: np.ndarray, followers: np.ndarray,
                     reps: np.ndarray) -> np.ndarray:
    """Δ in λ units from each follower to its representative (its ε)."""
    return np.abs(cols[followers] - cols[reps]).max(axis=1)


def refresh_compression(
    compressed: CompressedVectors,
    eff_codes: np.ndarray,
    eff_eps: np.ndarray,
    ids: "list[int]",
    codes: np.ndarray,
    xi: float,
    plan_index: "tuple[np.ndarray, np.ndarray]",
    changed: np.ndarray,
) -> "set[int]":
    """Patch, in place, a plan-derived compression and its effective
    arrays to :func:`apply_compression_plan`'s output on the new codes,
    re-measuring only followers whose own or representative's column is
    in *changed*.  Returns the ids whose compression record moved."""
    cols = codes.T
    codes_of, ref_of = compressed.codes_of, compressed.ref_of
    own = cols[changed]
    eff_codes[changed] = own
    eff_eps[changed] = 0
    for j, row in zip(changed.tolist(), own):
        if ids[j] in codes_of:
            codes_of[ids[j]] = row
    dirty = np.zeros(len(ids), dtype=bool)
    dirty[changed] = True
    followers, reps = plan_index
    hit = dirty[followers] | dirty[reps]
    followers, reps = followers[hit], reps[hit]
    deltas = _follower_deltas(cols, followers, reps)
    kept = deltas <= _xi_units(xi, compressed.spec)
    eff_codes[followers] = cols[np.where(kept, reps, followers)]
    eff_eps[followers] = np.where(kept, deltas, 0)
    moved: set[int] = set()
    for f, r, delta, keep in zip(followers.tolist(), reps.tolist(),
                                 deltas.tolist(), kept.tolist()):
        node_id = ids[f]
        if keep:
            record = (ids[r], delta)
            if ref_of.get(node_id) != record:
                moved.add(node_id)
                ref_of[node_id] = record
                codes_of.pop(node_id, None)
        else:
            if ref_of.pop(node_id, None) is not None:
                moved.add(node_id)
            codes_of[node_id] = np.array(cols[f])
    return moved


def compress_leader(
    ids: "list[int]",
    codes: np.ndarray,
    spec: QuantizationSpec,
    xi: float,
    scan_order: "list[int] | None" = None,
) -> CompressedVectors:
    """First-fit leader compression (benchmark-scale variant).

    Scans nodes (by default in the given order; pass a proximity-
    preserving order such as Hilbert for better compression).  A node
    joins the existing representative with the smallest Δ if that Δ is
    within ξ; otherwise it becomes a new representative.
    """
    xi_units = _xi_units(xi, spec)
    result = CompressedVectors(spec=spec)
    index_of = {node_id: i for i, node_id in enumerate(ids)}
    order = scan_order if scan_order is not None else list(ids)
    if sorted(order) != sorted(ids):
        raise GraphError("scan_order must be a permutation of ids")

    cols = np.ascontiguousarray(codes.T)  # (n, c)
    c = cols.shape[1]
    rep_ids: list[int] = []
    # Growable representative matrix (doubling capacity) so each new
    # representative is an O(1) amortized append, not a full copy.
    capacity = 16
    rep_matrix = np.empty((capacity, c), dtype=cols.dtype)

    # Probe pruning: Chebyshev Δ over any single dimension lower-bounds
    # the full Δ, so representatives outside ``[v - ξ, v + ξ]`` on a
    # probe dimension cannot be within ξ.  Keeping representatives in a
    # list sorted by (probe value, creation index) turns the filter
    # into two bisects — zero NumPy dispatches for the common case of
    # an empty window.  Exactness: if the true argmin Δ* is within ξ,
    # every representative with Δ == Δ* is inside the window (its probe
    # Δ <= Δ* <= ξ), and evaluating candidates in creation order keeps
    # the full scan's first-minimum tie-breaking.
    probe_dim = int(np.argmax(codes.var(axis=1)))
    window: list[tuple[int, int]] = []  # (probe value, creation index)
    high = 1 << 60

    for node_id in order:
        row = cols[index_of[node_id]]
        base = int(row[probe_dim])
        lo = bisect_left(window, (base - xi_units, -1))
        hi = bisect_right(window, (base + xi_units, high))
        if hi > lo:
            candidates = sorted(entry[1] for entry in window[lo:hi])
            deltas = np.abs(rep_matrix[candidates] - row).max(axis=1)
            best = int(np.argmin(deltas))
            if int(deltas[best]) <= xi_units:
                result.ref_of[node_id] = (
                    rep_ids[candidates[best]], int(deltas[best])
                )
                continue
        count = len(rep_ids)
        if count == capacity:
            capacity *= 2
            grown = np.empty((capacity, c), dtype=cols.dtype)
            grown[:count] = rep_matrix[:count]
            rep_matrix = grown
        rep_matrix[count] = row
        rep_ids.append(node_id)
        insort(window, (base, count))
        result.codes_of[node_id] = row
    return result
