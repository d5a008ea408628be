"""Merkle dump_state/load_state: byte-identical proofs after reload."""

from __future__ import annotations

import pytest

from repro.errors import MerkleError
from repro.merkle.tree import MerkleTree


def _payloads(count: int) -> list[bytes]:
    return [f"payload-{i}".encode() for i in range(count)]


class TestTreeState:
    @pytest.mark.parametrize("fanout", [2, 3, 8])
    @pytest.mark.parametrize("count", [1, 2, 7, 33])
    def test_prove_is_byte_identical_after_reload(self, fanout, count):
        tree = MerkleTree(_payloads(count), fanout=fanout)
        clone = MerkleTree.load_state(tree.dump_state(),
                                      num_leaves=count, fanout=fanout)
        assert clone.root == tree.root
        assert clone.num_levels == tree.num_levels
        disclosures = [[0], [count - 1], list(range(count))[:3]]
        for disclosed in disclosures:
            disclosed = [i for i in disclosed if i < count]
            if not disclosed:
                continue
            assert clone.prove(disclosed) == tree.prove(disclosed)

    def test_reloaded_tree_accepts_updates(self):
        tree = MerkleTree(_payloads(9), fanout=2)
        clone = MerkleTree.load_state(tree.dump_state(),
                                      num_leaves=9, fanout=2)
        tree.update_leaf(4, b"changed")
        clone.update_leaf(4, b"changed")
        assert clone.root == tree.root
        assert clone.dump_state() == tree.dump_state()

    def test_wrong_blob_length_is_rejected(self):
        tree = MerkleTree(_payloads(5), fanout=2)
        blob = tree.dump_state()
        for bad in (blob[:-1], blob + b"\x00" * 20):
            with pytest.raises(MerkleError):
                MerkleTree.load_state(bad, num_leaves=5, fanout=2)
        with pytest.raises(MerkleError):
            MerkleTree.load_state(blob, num_leaves=6, fanout=2)
        with pytest.raises(MerkleError):
            MerkleTree.load_state(blob, num_leaves=5, fanout=3)

    def test_invalid_shape_is_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree.load_state(b"", num_leaves=0, fanout=2)
        with pytest.raises(MerkleError):
            MerkleTree.load_state(b"", num_leaves=1, fanout=1)

    def test_level_sizes_match_construction(self):
        for count in (1, 2, 5, 16, 17):
            for fanout in (2, 4):
                tree = MerkleTree(_payloads(count), fanout=fanout)
                sizes = MerkleTree.level_sizes(count, fanout)
                assert sizes == [tree.level_size(level)
                                 for level in range(tree.num_levels)]
