"""Merkle multiproofs: one deduplicated ΓT for several disclosure sets.

The wire-level BATCH layout rests on what production runs here —
:func:`merge_entries` on the server, :func:`reconstruct_root` over the
union on the client:

* pooling the k *independent* per-set proofs yields exactly
  ``prove(union)`` — which is how the server builds the shared cover
  without touching the tree;
* the union's payloads under that cover rebuild the signed root, so
  every leaf of every set is authenticated by one reconstruction.

The tamper battery then checks that the deduplication does not open a
forgery seam: a wrong digest moves the root, an omitted one is a typed
structural failure, a duplicated one is not a cover and is refused, and
reordering the shared entries is benign (each level is read in index
order).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.errors import MerkleError
from repro.merkle import MerkleTree, cover_indices, merge_entries, reconstruct_root

HASH = "sha1"


def payloads(n):
    return [f"payload-{i}".encode() for i in range(n)]


def leaf_map(tree, indices):
    return {i: f"payload-{i}".encode() for i in indices}


def make_tree(n, fanout=4):
    return MerkleTree(payloads(n), fanout=fanout, hash_fn=HASH)


def random_sets(n, k, rng):
    return [sorted(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
            for _ in range(k)]


def union_root(tree, leaves, entries):
    """The client's check: the union's root from its shared cover."""
    return reconstruct_root(tree.num_leaves, tree.fanout, HASH, leaves, entries)


def multiproof(tree, sets):
    """The server's producer: pool the per-set proofs, cover the union."""
    union = sorted(set().union(*sets))
    pooled = {(entry.level, entry.index): entry.digest
              for disclosed in sets for entry in tree.prove(disclosed)}
    return union, merge_entries(tree.num_leaves, tree.fanout, union, pooled)


class TestUnionAndCovers:
    def test_union_of_nothing_rejected(self):
        tree = make_tree(8)
        with pytest.raises(MerkleError):
            merge_entries(tree.num_leaves, tree.fanout, [], {})
        with pytest.raises(MerkleError):
            union_root(tree, {}, [])

    def test_cover_indices_match_prove_coordinates(self):
        tree = make_tree(33, fanout=3)
        disclosed = [0, 5, 17, 32]
        entries = tree.prove(disclosed)
        assert [(e.level, e.index) for e in entries] == \
            cover_indices(tree.num_leaves, tree.fanout, disclosed)


class TestMultiproofEquivalence:
    @pytest.mark.parametrize("n,fanout", [(1, 2), (2, 2), (7, 2), (16, 4),
                                          (33, 3), (100, 8)])
    def test_shared_proof_is_union_proof(self, n, fanout):
        """The server-side path: pool k standalone proofs, no tree."""
        tree = make_tree(n, fanout)
        rng = random.Random(n * 31 + fanout)
        sets = random_sets(n, 5, rng)
        union, shared = multiproof(tree, sets)
        assert shared == tree.prove(union)

    @pytest.mark.parametrize("n,fanout", [(1, 2), (7, 2), (16, 4), (33, 3),
                                          (100, 8)])
    def test_union_rebuilds_the_root(self, n, fanout):
        tree = make_tree(n, fanout)
        rng = random.Random(n * 13 + fanout)
        sets = random_sets(n, 5, rng)
        union, shared = multiproof(tree, sets)
        assert union_root(tree, leaf_map(tree, union), shared) == tree.root


class TestBatchShapes:
    def test_singleton_batch_degenerates_to_plain_proof(self):
        tree = make_tree(20, 4)
        union, shared = multiproof(tree, [[2, 11]])
        assert union == [2, 11]
        assert shared == tree.prove([2, 11])

    def test_duplicate_sets_share_everything(self):
        tree = make_tree(20, 4)
        sets = [[4, 7], [4, 7], [4, 7]]
        union, shared = multiproof(tree, sets)
        assert union == [4, 7]
        assert shared == tree.prove([4, 7])

    def test_all_leaves_disclosed_needs_no_entries(self):
        tree = make_tree(9, 3)
        union, shared = multiproof(tree, [list(range(9))])
        assert shared == []
        assert union_root(tree, leaf_map(tree, union), shared) == tree.root


class TestTamperBattery:
    @pytest.fixture()
    def setting(self):
        tree = make_tree(48, 4)
        sets = [[1, 30], [7, 30, 42], [19]]
        union, shared = multiproof(tree, sets)
        return tree, sets, union, shared

    def test_tampered_digest_moves_the_root(self, setting):
        tree, sets, union, shared = setting
        for position in range(len(shared)):
            bad = list(shared)
            entry = bad[position]
            flipped = bytes([entry.digest[0] ^ 0x01]) + entry.digest[1:]
            bad[position] = replace(entry, digest=flipped)
            assert union_root(tree, leaf_map(tree, union), bad) != tree.root

    def test_digest_swap_between_entries_moves_the_root(self, setting):
        tree, sets, union, shared = setting
        assert len(shared) >= 2
        a, b = shared[0], shared[1]
        swapped = [replace(a, digest=b.digest), replace(b, digest=a.digest),
                   *shared[2:]]
        assert union_root(tree, leaf_map(tree, union), swapped) != tree.root

    def test_tampered_payload_moves_the_root(self, setting):
        tree, sets, union, shared = setting
        leaves = leaf_map(tree, union)
        leaves[union[0]] = leaves[union[0]] + b"!"
        assert union_root(tree, leaves, shared) != tree.root

    def test_omitted_entry_is_structural_failure(self, setting):
        tree, sets, union, shared = setting
        for position in range(len(shared)):
            bad = shared[:position] + shared[position + 1:]
            with pytest.raises(MerkleError):
                union_root(tree, leaf_map(tree, union), bad)

    def test_conflicting_duplicate_entries_rejected(self, setting):
        tree, sets, union, shared = setting
        entry = shared[0]
        flipped = bytes([entry.digest[0] ^ 0x01]) + entry.digest[1:]
        doubled = [*shared, replace(entry, digest=flipped)]
        with pytest.raises(MerkleError):
            union_root(tree, leaf_map(tree, union), doubled)

    def test_benign_duplicate_entries_refused(self, setting):
        """A repeated entry is not part of the canonical cover."""
        tree, sets, union, shared = setting
        with pytest.raises(MerkleError):
            union_root(tree, leaf_map(tree, union), [*shared, shared[0]])

    def test_reordered_entries_are_benign(self, setting):
        """The sweep reads each level in index order, so shuffling the
        shared entries changes nothing."""
        tree, sets, union, shared = setting
        shuffled = list(shared)
        random.Random(5).shuffle(shuffled)
        assert union_root(tree, leaf_map(tree, union), shuffled) == tree.root

    def test_merge_with_missing_pooled_entry_rejected(self, setting):
        tree, sets, union, shared = setting
        pooled = {(e.level, e.index): e.digest for e in shared}
        pooled.pop(next(iter(pooled)))
        with pytest.raises(MerkleError):
            merge_entries(tree.num_leaves, tree.fanout, union, pooled)


class TestSavings:
    def test_union_cover_never_larger_than_concatenation(self):
        rng = random.Random(2010)
        for n, fanout in [(16, 2), (50, 4), (100, 8)]:
            tree = make_tree(n, fanout)
            sets = random_sets(n, 6, rng)
            _, shared = multiproof(tree, sets)
            independent = sum(len(tree.prove(s)) for s in sets)
            assert len(shared) <= independent

    def test_overlapping_sets_actually_save(self):
        tree = make_tree(64, 2)
        sets = [[0, 1, i] for i in range(2, 10)]
        _, shared = multiproof(tree, sets)
        independent = sum(len(tree.prove(s)) for s in sets)
        assert len(shared) < independent / 2
