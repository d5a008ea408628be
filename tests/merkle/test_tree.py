"""Tests for the f-ary Merkle tree, covers and reconstruction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import HashFunction
from repro.errors import MerkleError
from repro.merkle.proof import MerkleProofEntry
from repro.merkle.tree import MerkleTree, leaf_digest, reconstruct_root


def payloads(n):
    return [f"payload-{i}".encode() for i in range(n)]


class TestConstruction:
    def test_root_deterministic(self):
        a = MerkleTree(payloads(10))
        b = MerkleTree(payloads(10))
        assert a.root == b.root

    def test_root_depends_on_order(self):
        a = MerkleTree(payloads(4))
        b = MerkleTree(list(reversed(payloads(4))))
        assert a.root != b.root

    def test_root_depends_on_fanout(self):
        a = MerkleTree(payloads(9), fanout=2)
        b = MerkleTree(payloads(9), fanout=3)
        assert a.root != b.root

    def test_single_leaf(self):
        tree = MerkleTree(payloads(1))
        assert tree.num_leaves == 1
        assert tree.num_levels == 1
        assert tree.root == leaf_digest(b"payload-0", "sha1")

    def test_empty_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree([])

    def test_bad_fanout_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree(payloads(4), fanout=1)

    def test_level_sizes_fanout2(self):
        tree = MerkleTree(payloads(5), fanout=2)
        assert [tree.level_size(i) for i in range(tree.num_levels)] == [5, 3, 2, 1]

    def test_level_sizes_fanout4(self):
        tree = MerkleTree(payloads(17), fanout=4)
        assert [tree.level_size(i) for i in range(tree.num_levels)] == [17, 5, 2, 1]

    def test_from_leaf_digests(self):
        ps = payloads(6)
        digests = b"".join(leaf_digest(p, "sha1") for p in ps)
        a = MerkleTree(ps)
        b = MerkleTree(leaf_digests=digests)
        assert a.root == b.root

    def test_both_inputs_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree(payloads(2), leaf_digests=b"\x00" * 40)

    def test_misaligned_leaf_digests_rejected(self):
        with pytest.raises(MerkleError):
            MerkleTree(leaf_digests=b"\x00" * 21)

    def test_sha256_digests(self):
        tree = MerkleTree(payloads(3), hash_fn="sha256")
        assert len(tree.root) == 32

    def test_domain_separation(self):
        # A leaf digest must never collide with an internal digest over the
        # same bytes.
        h = HashFunction("sha1")
        data = b"\x01" * 20
        assert h.digest(b"\x00", data) != h.digest(b"\x01", data)

    def test_digest_at_bounds(self):
        tree = MerkleTree(payloads(4))
        with pytest.raises(MerkleError):
            tree.digest_at(0, 4)
        with pytest.raises(MerkleError):
            tree.digest_at(9, 0)


class TestProveAndReconstruct:
    @pytest.mark.parametrize("fanout", [2, 3, 4, 8, 32])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_single_leaf_proofs(self, fanout, n):
        ps = payloads(n)
        tree = MerkleTree(ps, fanout=fanout)
        for index in {0, n // 2, n - 1}:
            entries = tree.prove([index])
            root = reconstruct_root(n, fanout, "sha1", {index: ps[index]}, entries)
            assert root == tree.root

    @given(
        st.integers(min_value=1, max_value=60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1),
                st.sampled_from([2, 3, 4, 16]),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_leaf_proofs(self, case):
        n, disclosed, fanout = case
        ps = payloads(n)
        tree = MerkleTree(ps, fanout=fanout)
        entries = tree.prove(disclosed)
        root = reconstruct_root(
            n, fanout, "sha1", {i: ps[i] for i in disclosed}, entries
        )
        assert root == tree.root

    def test_proof_minimality_rule(self):
        # No proof entry's subtree may contain a disclosed leaf, and no two
        # entries may be nested.
        n, fanout = 37, 2
        tree = MerkleTree(payloads(n), fanout=fanout)
        disclosed = [0, 5, 21]
        entries = tree.prove(disclosed)

        def leaf_range(level, index):
            return (index * fanout**level, min(n, (index + 1) * fanout**level))

        for entry in entries:
            lo, hi = leaf_range(entry.level, entry.index)
            assert not any(lo <= d < hi for d in disclosed)
        ranges = sorted(leaf_range(e.level, e.index) for e in entries)
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2  # disjoint

    def test_full_disclosure_needs_no_entries(self):
        ps = payloads(8)
        tree = MerkleTree(ps)
        entries = tree.prove(range(8))
        assert entries == []
        root = reconstruct_root(8, 2, "sha1", dict(enumerate(ps)), [])
        assert root == tree.root

    def test_empty_disclosure_rejected(self):
        tree = MerkleTree(payloads(4))
        with pytest.raises(MerkleError):
            tree.prove([])

    def test_out_of_range_disclosure_rejected(self):
        tree = MerkleTree(payloads(4))
        with pytest.raises(MerkleError):
            tree.prove([4])
        with pytest.raises(MerkleError):
            tree.prove([-1])


class TestTamperDetection:
    def test_tampered_payload_changes_root(self):
        ps = payloads(12)
        tree = MerkleTree(ps)
        entries = tree.prove([3])
        bad = reconstruct_root(12, 2, "sha1", {3: b"evil"}, entries)
        assert bad != tree.root

    def test_tampered_entry_changes_root(self):
        ps = payloads(12)
        tree = MerkleTree(ps)
        entries = tree.prove([3])
        flipped = [
            MerkleProofEntry(e.level, e.index, bytes([e.digest[0] ^ 1]) + e.digest[1:])
            for e in entries
        ]
        assert reconstruct_root(12, 2, "sha1", {3: ps[3]}, flipped) != tree.root

    def test_missing_entry_raises(self):
        ps = payloads(12)
        tree = MerkleTree(ps)
        entries = tree.prove([3])[:-1]
        with pytest.raises(MerkleError):
            reconstruct_root(12, 2, "sha1", {3: ps[3]}, entries)

    def test_wrong_position_rejected(self):
        # Presenting the payload at the wrong leaf position must fail:
        # either the cover no longer lines up (MerkleError) or the root
        # differs.  Position 2 shares its sibling group with position 3,
        # so the cover structure stays valid and the root must mismatch.
        ps = payloads(12)
        tree = MerkleTree(ps)
        entries = tree.prove([3])
        with pytest.raises(MerkleError):
            reconstruct_root(12, 2, "sha1", {4: ps[3]}, entries)
        entries_for_2 = [e for e in entries if (e.level, e.index) != (0, 2)]
        entries_for_2.append(MerkleProofEntry(0, 3, tree.digest_at(0, 3)))
        assert (
            reconstruct_root(12, 2, "sha1", {2: ps[3]}, entries_for_2) != tree.root
        )

    @pytest.mark.parametrize("fanout", [2, 3, 8])
    def test_only_a_cover_reconstructs(self, fanout):
        # Entries the sweep never asks for used to be ignored (and a
        # repeated coordinate silently overwritten): a padded proof
        # verified.  Anything but exactly the cover is refused now.
        ps = payloads(40)
        tree = MerkleTree(ps, fanout=fanout)
        leaves = {i: ps[i] for i in (3, 4, 17)}
        entries = tree.prove(list(leaves))
        assert reconstruct_root(40, fanout, "sha1", leaves,
                                list(reversed(entries))) == tree.root
        top = tree.num_levels - 1
        for extra in (
            entries[0],                                          # duplicate
            MerkleProofEntry(entries[0].level, entries[0].index, b"x" * 20),
            MerkleProofEntry(0, 3, tree.digest_at(0, 3)),        # recomputed node
            MerkleProofEntry(0, 30, tree.digest_at(0, 30)),      # inside a covered subtree
            MerkleProofEntry(top, 0, tree.root),                 # the root itself
            MerkleProofEntry(top + 5, 0, b"x" * 20),             # no such level
            MerkleProofEntry(0, 10**30, b"x" * 20),              # no such index
            MerkleProofEntry(0, -1, b"x" * 20),
        ):
            with pytest.raises(MerkleError):
                reconstruct_root(40, fanout, "sha1", leaves, entries + [extra])

    def test_reconstruct_validates_inputs(self):
        with pytest.raises(MerkleError):
            reconstruct_root(0, 2, "sha1", {0: b"x"}, [])
        with pytest.raises(MerkleError):
            reconstruct_root(4, 1, "sha1", {0: b"x"}, [])
        with pytest.raises(MerkleError):
            reconstruct_root(4, 2, "sha1", {}, [])
        with pytest.raises(MerkleError):
            reconstruct_root(4, 2, "sha1", {9: b"x"}, [])


class TestLargeTree:
    def test_hundred_thousand_leaves(self):
        n = 100_000
        tree = MerkleTree((b"%d" % i for i in range(n)), fanout=16)
        disclosed = {0, 777, 54_321, n - 1}
        entries = tree.prove(disclosed)
        root = reconstruct_root(
            n, 16, "sha1", {i: b"%d" % i for i in disclosed}, entries
        )
        assert root == tree.root
        # Proof stays logarithmic-ish.
        assert len(entries) < 4 * 16 * 6
