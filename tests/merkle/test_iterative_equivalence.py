"""Iterative vs recursive Merkle prove/reconstruct (tentpole acceptance).

``MerkleTree.prove`` and ``reconstruct_root`` were rewritten from
per-node recursion into iterative range-frontier sweeps.  These tests
pin the rewrite against a reference implementation of the original
recursion across fanouts 2–32, plus golden digests so the tree layout
itself can never drift silently.
"""

import random
from bisect import bisect_left

import pytest

from repro.merkle.proof import MerkleProofEntry
from repro.merkle.tree import MerkleTree, reconstruct_root


def recursive_prove(tree: MerkleTree, disclosed) -> "list[MerkleProofEntry]":
    """The original recursive inclusion walk, kept as the reference."""
    indices = sorted(set(disclosed))
    entries: list[MerkleProofEntry] = []
    f = tree.fanout
    top = tree.num_levels - 1

    def intersects(level: int, index: int) -> bool:
        lo = index * (f ** level)
        hi = min(tree.num_leaves, (index + 1) * (f ** level))
        pos = bisect_left(indices, lo)
        return pos < len(indices) and indices[pos] < hi

    def walk(level: int, index: int) -> None:
        if not intersects(level, index):
            entries.append(
                MerkleProofEntry(level, index, tree.digest_at(level, index))
            )
            return
        if level == 0:
            return
        child_count = tree.level_size(level - 1)
        for child in range(index * f, min((index + 1) * f, child_count)):
            walk(level - 1, child)

    walk(top, 0)
    return entries


def payloads(n):
    return [b"payload-%d" % i for i in range(n)]


class TestProveMatchesRecursion:
    @pytest.mark.parametrize("fanout", [2, 3, 4, 5, 8, 16, 32])
    def test_entry_sequences_identical(self, fanout):
        rng = random.Random(fanout)
        for _ in range(25):
            n = rng.randint(1, 300)
            tree = MerkleTree(payloads(n), fanout=fanout)
            disclosed = rng.sample(range(n), rng.randint(1, min(n, 15)))
            assert tree.prove(disclosed) == recursive_prove(tree, disclosed)

    @pytest.mark.parametrize("fanout", [2, 3, 4, 8, 32])
    def test_reconstructed_root_matches(self, fanout):
        rng = random.Random(1000 + fanout)
        for _ in range(15):
            n = rng.randint(1, 200)
            ps = payloads(n)
            tree = MerkleTree(ps, fanout=fanout)
            disclosed = rng.sample(range(n), rng.randint(1, min(n, 10)))
            entries = tree.prove(disclosed)
            root = reconstruct_root(
                n, fanout, "sha1", {i: ps[i] for i in disclosed}, entries
            )
            assert root == tree.root

    def test_boundary_shapes(self):
        # Shapes that stress the short trailing group at every level.
        for fanout, n in [(2, 1), (2, 2), (2, 3), (3, 9), (3, 10),
                          (32, 31), (32, 32), (32, 33), (32, 1025)]:
            tree = MerkleTree(payloads(n), fanout=fanout)
            for disclosed in ([0], [n - 1], list(range(n))[:7]):
                assert tree.prove(disclosed) == recursive_prove(tree, disclosed)


def _runs(rng, n, fanout):
    """A disclosure set of runs of consecutive leaves, drawn to stress
    the run sweep: runs that share a parent, runs that touch across a
    group boundary, runs into the short tail group, lone leaves."""
    leaves = set()
    for _ in range(rng.randint(1, 6)):
        start = rng.randrange(n)
        shape = rng.choice(["any", "share", "touch", "tail", "single"])
        if shape == "share":  # two runs inside one sibling group
            start -= start % fanout
            leaves.update(range(start, min(n, start + fanout // 2)))
            start += fanout // 2 + 1
        elif shape == "touch":  # a run ending just where a group ends
            start -= start % fanout
        elif shape == "tail":  # a run into the last (short) group
            start = max(0, n - rng.randint(1, 2 * fanout))
        length = 1 if shape == "single" else rng.randint(1, 3 * fanout)
        leaves.update(range(start, min(n, start + length)))
    return sorted(v for v in leaves if v < n)


class TestRunShapedDisclosures:
    """Ball-like disclosures: a few runs of consecutive leaves each."""

    @pytest.mark.parametrize("fanout", [2, 3, 4, 5, 8, 16, 32])
    def test_runs_match_recursion_and_reconstruct(self, fanout):
        rng = random.Random(7000 + fanout)
        for _ in range(30):
            n = rng.randint(1, 400)
            ps = payloads(n)
            tree = MerkleTree(ps, fanout=fanout)
            disclosed = _runs(rng, n, fanout)
            entries = tree.prove(disclosed)
            assert entries == recursive_prove(tree, disclosed)
            root = reconstruct_root(
                n, fanout, "sha1", {i: ps[i] for i in disclosed}, entries)
            assert root == tree.root

    @pytest.mark.parametrize("fanout", [2, 3, 7, 16, 32])
    def test_full_set_single_leaf_and_short_tails(self, fanout):
        for n in (1, fanout - 1, fanout, fanout + 1, fanout ** 2 - 1,
                  fanout ** 2 + 3, 3 * fanout ** 2 + fanout + 1):
            if n < 1:
                continue
            tree = MerkleTree(payloads(n), fanout=fanout)
            cases = [list(range(n)), [0], [n - 1], [n // 2],
                     list(range(n - n % fanout, n)) or [n - 1],
                     list(range(0, n, 2)), list(range(1, n, fanout))]
            for disclosed in filter(None, cases):
                assert tree.prove(disclosed) == recursive_prove(tree, disclosed)
            assert tree.prove(range(n)) == []


class TestGoldenDigests:
    """Frozen hex digests: any layout or hashing change breaks these."""

    def test_known_roots(self):
        golden = {
            (2, 1): "8869033247d97497faa5b408d2e17f9942af0327",
            (2, 7): "d169680363c8462d15da4ef45170e3d50f44d68c",
            (3, 7): "628e10d7f87ad54558afb20bf08af2ff55d3a914",
            (16, 40): "9dde3567534aa9c37ae39ffb47d66f84ed144423",
            (32, 100): "b221e054a130cc73b420a4b6808340e773fdd115",
        }
        for (fanout, n), expected in golden.items():
            tree = MerkleTree(payloads(n), fanout=fanout)
            assert tree.root.hex() == expected, (fanout, n)

    def test_known_proof_shape(self):
        tree = MerkleTree(payloads(12), fanout=2)
        entries = tree.prove([3, 10])
        assert [(e.level, e.index) for e in entries] == [
            (1, 0), (0, 2), (2, 1), (1, 4), (0, 11),
        ]

    def test_update_leaf_consistent_with_rebuild(self):
        ps = payloads(20)
        tree = MerkleTree(ps, fanout=3)
        tree.update_leaf(7, b"replacement")
        ps[7] = b"replacement"
        assert tree.root == MerkleTree(ps, fanout=3).root
