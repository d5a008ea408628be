"""Merkle hash tree authentication structures.

Every authenticated structure in the four verification methods is a
:class:`~repro.merkle.tree.MerkleTree`: an f-ary Merkle hash tree over
an ordered sequence of payloads (the paper's network certification
tree, §III-B, with configurable fanout, Fig. 11a).  FULL and HYP keep
their distance tuples in one too, in triangle and tile order.

Batch serving shares one digest set across k queries
(:mod:`repro.merkle.multiproof`): the server pools the per-query covers
into the union's cover with :func:`merge_entries`, and the client
rebuilds the union's root once with :func:`reconstruct_root`, as for
any single proof.
"""

from repro.merkle.proof import MerkleProofEntry, decode_proof_entries, encode_proof_entries
from repro.merkle.tree import MerkleTree, cover_indices, reconstruct_root
from repro.merkle.multiproof import merge_entries

__all__ = [
    "MerkleTree",
    "MerkleProofEntry",
    "reconstruct_root",
    "encode_proof_entries",
    "decode_proof_entries",
    "cover_indices",
    "merge_entries",
]
