"""Tests for the hash function wrapper."""

import hashlib

import pytest

from repro.crypto.hashing import HashFunction, get_hash
from repro.errors import CryptoError


class TestHashFunction:
    def test_sha1_matches_hashlib(self):
        h = HashFunction("sha1")
        assert h.digest(b"abc") == hashlib.sha1(b"abc").digest()
        assert h.digest_size == 20

    def test_sha256_matches_hashlib(self):
        h = HashFunction("sha256")
        assert h.digest(b"abc") == hashlib.sha256(b"abc").digest()
        assert h.digest_size == 32

    def test_concatenation_operator(self):
        h = HashFunction("sha1")
        assert h.digest(b"ab", b"cd") == h.digest(b"abcd")

    def test_digest_int(self):
        h = HashFunction("sha1")
        value = h.digest_int(b"x")
        assert value == int.from_bytes(h.digest(b"x"), "big")

    def test_unknown_hash_rejected(self):
        with pytest.raises(CryptoError):
            HashFunction("md5-but-wrong")

    def test_equality_and_hashability(self):
        assert HashFunction("sha1") == HashFunction("sha1")
        assert HashFunction("sha1") != HashFunction("sha256")
        assert len({HashFunction("sha1"), HashFunction("sha1")}) == 1

    def test_get_hash_coercion(self):
        h = HashFunction("sha256")
        assert get_hash(h) is h
        assert get_hash("sha1").name == "sha1"

    def test_incremental_interface(self):
        h = HashFunction("sha1")
        hasher = h.new()
        hasher.update(b"ab")
        hasher.update(b"cd")
        assert hasher.digest() == h.digest(b"abcd")

    def test_pinned_digests_byte_stable(self):
        """Artifact compatibility: sha1/sha256 must never drift."""
        assert HashFunction("sha1").digest(b"abc").hex() == (
            "a9993e364706816aba3e25717850c26c9cd0d89d")
        assert HashFunction("sha256").digest(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

