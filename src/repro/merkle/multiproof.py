"""Merkle multiproofs: one deduplicated digest set for k leaf sets.

A BATCH of k queries against the same tree discloses k (overlapping)
leaf sets.  Shipping k independent covers repeats every digest that two
covers share — on road-network workloads the high levels of the tree
are shared by almost every query.  A *multiproof* ships the union
disclosure once: the cover of the **union** of the k leaf sets.

The two facts that make this sound and cheap:

* **The union cover is a subset of the union of the per-set covers.**
  A node enters the union cover iff its subtree holds no union leaf
  while its parent's does; any such node satisfies the same rule for
  every individual set whose leaves share its parent, so its digest was
  already present in at least one per-set cover.  The server therefore
  assembles the shared digest set purely from the per-query responses —
  no access to the tree itself is needed (:func:`merge_entries`).
* **Reconstructing the union root computes every digest any per-set
  cover needs.**  A per-set cover node either contains a union leaf
  (its digest falls out of the union sweep) or contains none (it *is*
  a shared entry).  :func:`expand_multi` records the sweep's
  intermediate digests and re-emits each set's standalone cover —
  byte-identical to what :meth:`MerkleTree.prove` on that set alone
  returns, so per-query verification downstream is unchanged.

Nothing here weakens verification: the recovered digests derive from
the (untrusted) payloads and shared entries, so any tampering surfaces
as a root mismatch exactly as it would for an independent proof.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.crypto.hashing import HashFunction, get_hash
from repro.errors import MerkleError
from repro.merkle.proof import MerkleProofEntry
from repro.merkle.tree import _LEAF_TAG, MerkleTree, cover_indices


def merge_entries(
    num_leaves: int,
    fanout: int,
    disclosed: "Sequence[int] | set[int]",
    pooled: "Mapping[tuple[int, int], bytes]",
) -> list[MerkleProofEntry]:
    """Assemble the union cover from digests pooled across covers.

    *pooled* maps ``(level, index)`` to a digest, typically gathered
    from the per-query proof entries of independently answered
    responses.  Because the union cover is a subset of the union of the
    per-set covers, every needed digest is present when the responses
    were produced against the same tree version; a gap means the inputs
    were inconsistent and is reported as :class:`MerkleError`.
    """
    entries: list[MerkleProofEntry] = []
    for level, index in cover_indices(num_leaves, fanout, disclosed):
        try:
            digest = pooled[(level, index)]
        except KeyError:
            raise MerkleError(
                f"pooled proof entries are missing hash entry "
                f"(level={level}, index={index})"
            ) from None
        entries.append(MerkleProofEntry(level, index, digest))
    return entries


def _digest_map(
    entries: "Iterable[MerkleProofEntry]",
) -> dict[tuple[int, int], bytes]:
    """Index entries by coordinate, rejecting conflicting duplicates."""
    digest_of: dict[tuple[int, int], bytes] = {}
    for entry in entries:
        coord = (entry.level, entry.index)
        known = digest_of.get(coord)
        if known is not None and known != entry.digest:
            raise MerkleError(
                f"conflicting digests for hash entry "
                f"(level={entry.level}, index={entry.index})"
            )
        digest_of[coord] = entry.digest
    return digest_of


def expand_multi(
    num_leaves: int,
    fanout: int,
    hash_fn: "str | HashFunction",
    disclosed_leaves: Mapping[int, bytes],
    entries: "Iterable[MerkleProofEntry]",
    leaf_sets: "Sequence[Sequence[int] | set[int]]",
) -> "tuple[bytes, list[list[MerkleProofEntry]]]":
    """Expand a multiproof back into per-set standalone covers.

    Runs the union root reconstruction while *recording* every digest it
    computes, then replays the cover arithmetic for each leaf set and
    pulls each needed digest from the recorded sweep or the shared
    entries.  Returns ``(union root, [cover entries per leaf set])``;
    each recovered cover is byte-identical to ``MerkleTree.prove(set)``
    on an honest tree, and on a tampered input the per-set covers
    faithfully propagate the tampering into a wrong root.

    Raises :class:`MerkleError` when the shared set is structurally
    incomplete for the union or for any requested leaf set (an
    *omission* attack — detected, never silently accepted).
    """
    if num_leaves <= 0:
        raise MerkleError("num_leaves must be positive")
    if fanout < 2:
        raise MerkleError(f"fanout must be >= 2, got {fanout}")
    hash_fn = get_hash(hash_fn)
    if not disclosed_leaves:
        raise MerkleError("no disclosed leaves")
    indices = sorted(disclosed_leaves)
    if indices[0] < 0 or indices[-1] >= num_leaves:
        raise MerkleError("disclosed leaf index out of range")
    for leaf_set in leaf_sets:
        for index in leaf_set:
            if index not in disclosed_leaves:
                raise MerkleError(
                    f"leaf set references undisclosed leaf {index}"
                )

    digest_of = _digest_map(entries)
    sizes = MerkleTree.level_sizes(num_leaves, fanout)

    # Union sweep, as in ``reconstruct_root``, but keeping every level's
    # computed digests: ``known[level][index]`` holds the digest of each
    # node whose subtree contains a union leaf.
    factory = hash_fn.factory
    known: list[dict[int, bytes]] = [
        {
            index: factory(_LEAF_TAG + disclosed_leaves[index]).digest()
            for index in indices
        }
    ]
    frontier = indices
    for level in range(1, len(sizes)):
        child_size = sizes[level - 1]
        child_level = level - 1
        computed = known[child_level]
        parents: list[int] = []
        next_computed: dict[int, bytes] = {}
        count = len(frontier)
        i = 0
        while i < count:
            parent = frontier[i] // fanout
            parents.append(parent)
            lo = parent * fanout
            hi = min(lo + fanout, child_size)
            parts = [b"\x01"]
            for child in range(lo, hi):
                if i < count and frontier[i] == child:
                    i += 1
                if child in computed:
                    parts.append(computed[child])
                    continue
                try:
                    parts.append(digest_of[(child_level, child)])
                except KeyError:
                    raise MerkleError(
                        f"integrity proof is missing hash entry "
                        f"(level={child_level}, index={child})"
                    ) from None
            next_computed[parent] = hash_fn.digest(*parts)
        known.append(next_computed)
        frontier = parents
    root = known[-1][0]

    # Per-set covers: every needed digest is either a shared entry (no
    # union leaf below it) or was computed by the sweep above.
    covers: list[list[MerkleProofEntry]] = []
    for leaf_set in leaf_sets:
        cover: list[MerkleProofEntry] = []
        for level, index in cover_indices(num_leaves, fanout, leaf_set):
            digest = known[level].get(index)
            if digest is None:
                digest = digest_of.get((level, index))
            if digest is None:
                raise MerkleError(
                    f"multiproof cannot recover hash entry "
                    f"(level={level}, index={index})"
                )
            cover.append(MerkleProofEntry(level, index, digest))
        covers.append(cover)
    return root, covers
