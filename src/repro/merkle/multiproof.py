"""Merkle multiproofs: one deduplicated digest set for k leaf sets.

A BATCH of k queries against the same tree discloses k (overlapping)
leaf sets.  Shipping k independent covers repeats every digest that two
covers share — on road-network workloads the high levels of the tree
are shared by almost every query.  A *multiproof* ships the union
disclosure once: the cover of the **union** of the k leaf sets.

**The union cover is a subset of the union of the per-set covers.**  A
node enters the union cover iff its subtree holds no union leaf while
its parent's does; any such node satisfies the same rule for every
individual set whose leaves share its parent, so its digest was already
present in at least one per-set cover.  The server therefore assembles
the shared digest set purely from the per-query responses — no access
to the tree itself is needed (:func:`merge_entries`).

The client checks a multiproof like any other proof: the union payloads
and the shared entries go through
:func:`~repro.merkle.tree.reconstruct_root`, which holds them to the
canonical-cover rule, and the root must be the signed one.  Each leaf
of the union is then authenticated, so each query's own leaves are too.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import MerkleError
from repro.merkle.proof import MerkleProofEntry
from repro.merkle.tree import cover_indices


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
