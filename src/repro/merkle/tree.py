"""f-ary Merkle hash tree with multi-leaf cover proofs.

Structure (paper §III-B / Fig. 3b): leaves are the digests of the
ordered payloads (extended tuples, distance tuples); each internal
entry is the digest of the concatenation of its (up to f) children;
the final short level may have fewer children, exactly like the ``⊥``
slots in the paper's figure.  The root is signed by the data owner.

Implementation notes
--------------------
* Levels are stored as **contiguous byte strings** (one digest after
  another), not per-node objects.  A tree over 10 million leaves with
  SHA-1 costs ~200 MB of levels for fanout 2 and builds in seconds,
  which is what makes the FULL method's all-pairs distance tree
  feasible in Python.
* Domain separation: leaf digests are ``H(0x00 || payload)`` and
  internal digests ``H(0x01 || children)``, preventing the classic
  leaf/internal second-preimage confusion.  (The 2010 paper predates
  that practice; it changes nothing measurable.)
* ``prove`` implements Merkle's inclusion rule for an arbitrary leaf
  subset: a hash entry enters ΓT iff its subtree contains no disclosed
  leaf and its parent's subtree does.
"""

from __future__ import annotations

import struct
from typing import Iterable, Mapping, Sequence

from repro.crypto.hashing import HashFunction, get_hash
from repro.errors import MerkleError
from repro.merkle.proof import MerkleProofEntry

_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


def leaf_digest(payload: bytes, hash_fn: "str | HashFunction") -> bytes:
    """Digest of a leaf payload (domain-separated)."""
    return get_hash(hash_fn).digest(_LEAF_TAG, payload)


def _hash_level(below: bytes, fanout: int, hash_fn: HashFunction) -> bytes:
    """Every parent digest of the level *below*: ``iter_unpack`` slices
    the full sibling groups at C speed, then the short trailing group."""
    factory = hash_fn.factory
    step = fanout * hash_fn.digest_size
    split = len(below) - len(below) % step
    parents = [factory(_NODE_TAG + chunk).digest()
               for (chunk,) in struct.iter_unpack(f"{step}s", below[:split])]
    if split < len(below):
        parents.append(factory(_NODE_TAG + below[split:]).digest())
    return b"".join(parents)


class MerkleTree:
    """f-ary Merkle hash tree over an ordered sequence of payloads.

    Parameters
    ----------
    payloads:
        Iterable of canonical byte encodings, in leaf order.  Consumed
        streaming, so generators over millions of tuples are fine.
    fanout:
        Number of children per internal node (paper sweeps 2..32).
    hash_fn:
        Hash name or :class:`HashFunction` (default SHA-1, as in 2010).
    leaf_digests:
        Alternative to *payloads*: pre-computed leaf digests as one
        contiguous byte string (length must be a multiple of the digest
        size).  Exactly one of the two must be given.
    """

    __slots__ = ("hash_fn", "fanout", "_levels", "_num_leaves")

    def __init__(
        self,
        payloads: "Iterable[bytes] | None" = None,
        *,
        fanout: int = 2,
        hash_fn: "str | HashFunction" = "sha1",
        leaf_digests: "bytes | None" = None,
    ) -> None:
        if fanout < 2:
            raise MerkleError(f"fanout must be >= 2, got {fanout}")
        if (payloads is None) == (leaf_digests is None):
            raise MerkleError("provide exactly one of payloads / leaf_digests")
        self.hash_fn = get_hash(hash_fn)
        self.fanout = fanout
        d = self.hash_fn.digest_size

        factory = self.hash_fn.factory
        if payloads is not None:
            tag = _LEAF_TAG
            # One-shot hashing: hashlib's constructor consumes the
            # tagged payload in a single C call, so each leaf costs two
            # C calls instead of four (construct/update/update/digest).
            level0 = b"".join(
                [factory(tag + payload).digest() for payload in payloads]
            )
        else:
            if len(leaf_digests) % d != 0:
                raise MerkleError(
                    f"leaf_digests length {len(leaf_digests)} is not a multiple "
                    f"of the digest size {d}"
                )
            level0 = bytes(leaf_digests)

        self._num_leaves = len(level0) // d
        if self._num_leaves == 0:
            raise MerkleError("cannot build a Merkle tree over zero leaves")

        levels = [level0]
        while len(levels[-1]) > d:
            levels.append(_hash_level(levels[-1], fanout, self.hash_fn))
        self._levels = levels

    # ------------------------------------------------------------------
    @property
    def num_leaves(self) -> int:
        """Number of leaves."""
        return self._num_leaves

    @property
    def num_levels(self) -> int:
        """Number of levels including the leaf level and the root level."""
        return len(self._levels)

    @property
    def root(self) -> bytes:
        """The root digest (what the owner signs)."""
        return self._levels[-1]

    def level_size(self, level: int) -> int:
        """Number of entries at *level* (0 = leaves)."""
        return len(self._levels[level]) // self.hash_fn.digest_size

    def digest_at(self, level: int, index: int) -> bytes:
        """The digest stored at ``(level, index)``."""
        if not 0 <= level < len(self._levels):
            raise MerkleError(f"level {level} out of range")
        if not 0 <= index < self.level_size(level):
            raise MerkleError(f"index {index} out of range at level {level}")
        d = self.hash_fn.digest_size
        return self._levels[level][index * d : (index + 1) * d]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def dump_state(self) -> bytes:
        """Flat level-order digest array: every level, leaves first.

        The blob plus ``(num_leaves, fanout, hash_fn)`` reproduces the
        tree exactly (see :meth:`load_state`); no per-node structure is
        written because the level sizes are arithmetic consequences of
        the leaf count and the fanout.
        """
        return b"".join(self._levels)

    @classmethod
    def level_sizes(cls, num_leaves: int, fanout: int) -> list[int]:
        """Entries per level (leaves first) for a tree of this shape."""
        if num_leaves <= 0:
            raise MerkleError("cannot build a Merkle tree over zero leaves")
        if fanout < 2:
            raise MerkleError(f"fanout must be >= 2, got {fanout}")
        sizes = [num_leaves]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + fanout - 1) // fanout)
        return sizes

    @classmethod
    def load_state(
        cls,
        data: "bytes | memoryview",
        *,
        num_leaves: int,
        fanout: int,
        hash_fn: "str | HashFunction" = "sha1",
    ) -> "MerkleTree":
        """Rehydrate a tree from :meth:`dump_state` output.

        The digests are installed verbatim (no re-hashing), so
        :meth:`prove` output is byte-identical to the tree that was
        dumped; the caller is expected to cross-check :attr:`root`
        against a trusted (signed) copy.  Raises :class:`MerkleError`
        when the blob length does not match the declared shape.
        """
        hash_fn = get_hash(hash_fn)
        d = hash_fn.digest_size
        sizes = cls.level_sizes(num_leaves, fanout)
        if len(data) != sum(sizes) * d:
            raise MerkleError(
                f"level blob is {len(data)} bytes; a {num_leaves}-leaf "
                f"fanout-{fanout} tree needs {sum(sizes) * d}"
            )
        # Each level is copied straight out of *data* — handed a
        # memoryview of a mapped artifact, that is the only copy made.
        levels: list[bytes] = []
        pos = 0
        for size in sizes:
            levels.append(bytes(data[pos:pos + size * d]))
            pos += size * d
        tree = cls.__new__(cls)
        tree.hash_fn = hash_fn
        tree.fanout = fanout
        tree._num_leaves = num_leaves
        tree._levels = levels
        return tree

    # ------------------------------------------------------------------
    def update_leaf(self, index: int, payload: bytes) -> None:
        """Replace one leaf payload and refresh digests up to the root.

        Cost is ``O(f · log_f n)`` hashes — this is what makes dynamic
        road networks (weight updates, closures) affordable: the owner
        re-signs the new root instead of rebuilding the tree.
        """
        self.update_leaves({index: payload})

    def update_leaves(self, payloads: "Mapping[int, bytes]") -> None:
        """Replace a batch of leaf payloads and refresh shared root paths.

        The batch form of :meth:`update_leaf`, and what the incremental
        re-authentication paths call: each level buffer is copied
        *once* per batch (``update_leaf`` in a loop would copy the full
        leaf level per call — ruinous on the million-leaf FULL distance
        tree), digests along overlapping root paths are recomputed
        once, and the result is identical to applying the updates one
        at a time.  A level most of whose entries are dirty is re-hashed
        wholesale with the constructor's chunked pass, so a patch never
        costs more than a rebuild.
        """
        if not payloads:
            return
        indices = sorted(payloads)
        if indices[0] < 0 or indices[-1] >= self._num_leaves:
            raise MerkleError(
                f"leaf indices must be in [0, {self._num_leaves}); got "
                f"[{indices[0]}, {indices[-1]}]"
            )
        d = self.hash_fn.digest_size
        f = self.fanout
        factory = self.hash_fn.factory

        levels = self._levels
        level0 = bytearray(levels[0])
        for index in indices:
            digest = factory(_LEAF_TAG + payloads[index]).digest()
            level0[index * d : (index + 1) * d] = digest
        levels[0] = bytes(level0)

        frontier = indices
        for level in range(1, len(levels)):
            below = levels[level - 1]
            child_count = len(below) // d
            parents: list[int] = []
            previous = -1
            for child in frontier:
                parent = child // f
                if parent != previous:
                    parents.append(parent)
                    previous = parent
            if 2 * len(parents) > len(levels[level]) // d:
                levels[level] = _hash_level(below, f, self.hash_fn)
                frontier = range(len(levels[level]) // d)
                continue
            row = bytearray(levels[level])
            for parent in parents:
                lo, hi = parent * f, min((parent + 1) * f, child_count)
                digest = factory(_NODE_TAG + below[lo * d : hi * d]).digest()
                row[parent * d : (parent + 1) * d] = digest
            levels[level] = bytes(row)
            frontier = parents

    def prove(self, disclosed: "Sequence[int] | set[int]") -> list[MerkleProofEntry]:
        """Integrity proof ΓT for the *disclosed* leaf indices.

        Returns the minimal set of hash entries that, combined with the
        disclosed leaves' own digests, reconstructs the root.
        """
        d = self.hash_fn.digest_size
        levels = self._levels
        return [MerkleProofEntry(level, index,
                                 levels[level][index * d:(index + 1) * d])
                for level, index in cover_indices(self._num_leaves,
                                                  self.fanout, disclosed)]


def cover_indices(
    num_leaves: int, fanout: int, disclosed: "Sequence[int] | set[int]",
) -> list[tuple[int, int]]:
    """The ``(level, index)`` coordinates of the cover for *disclosed*.

    Pure arithmetic on the tree shape — no digests involved.  Merkle's
    rule, swept level by level over *runs* of consecutive indices (a
    proximity-preserving leaf order discloses a ball as a few dozen
    runs): a node is a cover entry iff it is no run's member while a
    sibling is, and the runs contract to their parents' runs, merging
    where they meet, so a level costs O(runs), not O(leaves).  Entry
    subtrees are pairwise disjoint, so ordering by the first leaf each
    covers gives the pre-order (DFS) sequence the recursive walk emits.
    """
    indices = sorted(set(disclosed))
    if not indices:
        raise MerkleError("cannot prove an empty disclosure set")
    if indices[0] < 0 or indices[-1] >= num_leaves:
        raise MerkleError(
            f"leaf indices must be in [0, {num_leaves}); got "
            f"[{indices[0]}, {indices[-1]}]"
        )
    runs: list[list[int]] = []  # half-open [lo, hi)
    for index in indices:
        if runs and runs[-1][1] == index:
            runs[-1][1] += 1
        else:
            runs.append([index, index + 1])
    keyed: list[tuple[int, int, int]] = []
    span = 1  # leaves under one node of the current level
    for level, size in enumerate(MerkleTree.level_sizes(num_leaves, fanout)[:-1]):
        parents: list[list[int]] = []
        gaps = []  # [lo, hi) stretches of sibling entries
        for lo, hi in runs:
            first, last = lo // fanout, (hi - 1) // fanout + 1
            if parents and first <= parents[-1][1]:
                gaps.append((end, lo))  # up to the run, across its groups
                parents[-1][1] = last
            else:
                if parents:
                    gaps.append((end, min(parents[-1][1] * fanout, size)))
                gaps.append((first * fanout, lo))
                parents.append([first, last])
            end = hi
        gaps.append((end, min(parents[-1][1] * fanout, size)))
        keyed += [(index * span, level, index)
                  for lo, hi in gaps for index in range(lo, hi)]
        runs = parents
        span *= fanout
    keyed.sort()
    return [(level, index) for _, level, index in keyed]


def reconstruct_root(
    num_leaves: int,
    fanout: int,
    hash_fn: "str | HashFunction",
    disclosed_leaves: Mapping[int, bytes],
    entries: "Iterable[MerkleProofEntry]",
) -> bytes:
    """Client-side root reconstruction.

    Parameters
    ----------
    disclosed_leaves:
        ``{leaf index: payload encoding}`` for the tuples in ΓS.  The
        leaf digests are recomputed here, so a tampered tuple changes
        the reconstructed root.
    entries:
        The ΓT hash entries produced by :meth:`MerkleTree.prove`.

    Raises
    ------
    MerkleError
        If the proof is structurally incomplete (a needed digest is
        missing), malformed, or not a cover — it carries a duplicate
        entry or one the reconstruction never uses.  A *wrong* root is
        not detected here — the caller compares the returned root
        against the signed one.
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

    sizes = MerkleTree.level_sizes(num_leaves, fanout)

    # ΓT by level, each level in index order (an honest cover already
    # is, so the sort is a scan).  The root's level takes no entries.
    given: list[list[tuple[int, bytes]]] = [[] for _ in sizes[:-1]]
    for entry in entries:
        if not 0 <= entry.level < len(given) or entry.index < 0:
            raise MerkleError(
                f"hash entry at impossible position "
                f"(level={entry.level}, index={entry.index})"
            )
        given[entry.level].append((entry.index, entry.digest))

    # Iterative bottom-up frontier sweep, mirroring the iterative
    # ``MerkleTree.prove``: ``frontier`` / ``digests`` are the indices
    # and recomputed digests, at the current level, of every entry whose
    # subtree contains a disclosed leaf; the siblings come from that
    # level's proof entries, consumed in step.  A missing sibling means
    # the proof is structurally incomplete; an entry the sweep never
    # asks for — a duplicate, a digest for a node it recomputes, padding
    # — means it is not a cover, and is refused just the same.
    factory = hash_fn.factory
    frontier = indices
    digests = [factory(_LEAF_TAG + disclosed_leaves[index]).digest()
               for index in indices]
    for child_level, siblings in enumerate(given):
        siblings.sort()
        siblings.append((-1, b""))  # sentinels: no index is negative,
        frontier.append(-1)         # so neither cursor needs a bound
        child_size = sizes[child_level]
        parents: list[int] = []
        parent_digests: list[bytes] = []
        i = j = 0
        while frontier[i] >= 0:
            parent = frontier[i] // fanout
            parents.append(parent)
            lo = parent * fanout
            hi = lo + fanout
            if hi > child_size:
                hi = child_size
            parts = [_NODE_TAG]
            for child in range(lo, hi):
                if frontier[i] == child:
                    parts.append(digests[i])
                    i += 1
                elif siblings[j][0] == child:
                    parts.append(siblings[j][1])
                    j += 1
                else:
                    raise MerkleError(
                        f"integrity proof is missing hash entry "
                        f"(level={child_level}, index={child})"
                    )
            parent_digests.append(factory(b"".join(parts)).digest())
        if siblings[j][0] >= 0:
            raise MerkleError(
                f"integrity proof carries a duplicate or unused hash entry "
                f"(level={child_level}, index={siblings[j][0]})"
            )
        frontier, digests = parents, parent_digests
    return digests[0]
