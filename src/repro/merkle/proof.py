"""Merkle proof entries and their wire encoding."""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding import Decoder, Encoder


# Not frozen: a frozen dataclass's __init__ costs about five times as
# much, a reply carries hundreds of entries, and nothing mutates one.
@dataclass(order=True, slots=True, unsafe_hash=True)
class MerkleProofEntry:
    """One hash entry of an integrity proof ΓT.

    ``(level, index)`` locates the digest in the tree: level 0 holds
    leaf digests, the top level holds the root.  Following Merkle's
    rule, an entry is included iff its subtree contains no disclosed
    leaf while its parent's subtree does.
    """

    level: int
    index: int
    digest: bytes


def encode_proof_entries(entries: "list[MerkleProofEntry]", enc: Encoder) -> None:
    """Append *entries* to an encoder (count-prefixed)."""
    enc.write_bytes_seq([(e.level, e.index, e.digest) for e in entries], keys=2)


def decode_proof_entries(dec: Decoder) -> "list[MerkleProofEntry]":
    """Inverse of :func:`encode_proof_entries`.

    Strict: an entry occupies at least three bytes (level, index,
    digest length), so a count claiming more entries than the remaining
    bytes could hold is rejected up front as an
    :class:`~repro.errors.EncodingError`.
    """
    flat = dec.read_bytes_seq(keys=2)
    return list(map(MerkleProofEntry, flat[::3], flat[1::3], flat[2::3]))
