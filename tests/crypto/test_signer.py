"""Tests for the Signer abstraction and the public key file."""

import pytest

from repro.crypto.signer import (
    NullSigner,
    RsaSigner,
    load_public_key,
    save_public_key,
)
from repro.errors import CryptoError


class TestRsaSigner:
    def test_roundtrip(self, rsa_signer):
        sig = rsa_signer.sign(b"root digest")
        assert rsa_signer.verify(b"root digest", sig)
        assert not rsa_signer.verify(b"other digest", sig)

    def test_signature_size(self, rsa_signer):
        assert rsa_signer.signature_size == len(rsa_signer.sign(b"x"))

    def test_public_verifier(self, rsa_signer):
        verifier = rsa_signer.verifier_for_public_key()
        sig = rsa_signer.sign(b"m")
        assert verifier.verify(b"m", sig)
        assert not verifier.verify(b"n", sig)
        assert not hasattr(verifier, "sign")


class TestNullSigner:
    def test_roundtrip(self):
        signer = NullSigner()
        sig = signer.sign(b"m")
        assert signer.verify(b"m", sig)
        assert not signer.verify(b"n", sig)

    def test_signature_size_padding(self):
        signer = NullSigner(signature_size=128)
        assert len(signer.sign(b"m")) == 128
        assert signer.signature_size == 128

    def test_keyed(self):
        a = NullSigner(key=b"a")
        b = NullSigner(key=b"b")
        assert not b.verify(b"m", a.sign(b"m"))


class TestPublicKeyFiles:
    """The one-line key file ``repro-spv verify`` and ``--key`` load."""

    def test_rsa_key_file_verifies_the_owner_signature(self, rsa_signer,
                                                        tmp_path):
        path = str(tmp_path / "owner.pub")
        save_public_key(rsa_signer, path)
        verifier = load_public_key(path)
        signature = rsa_signer.sign(b"root digest")
        assert verifier.verify(b"root digest", signature)
        assert not verifier.verify(b"other digest", signature)
        assert not hasattr(verifier, "sign")

    def test_rsa_key_file_holds_no_private_material(self, rsa_signer,
                                                    tmp_path):
        path = tmp_path / "owner.pub"
        save_public_key(rsa_signer, str(path))
        kind, hash_name, n_hex, e_hex = path.read_text().split()
        public = rsa_signer.public_key
        assert (kind, int(n_hex, 16), int(e_hex, 16)) == \
            ("rsa", public.n, public.e)
        assert f"{rsa_signer._keypair.d:x}" not in path.read_text()

    def test_a_verifier_saves_the_file_its_signer_saves(self, rsa_signer,
                                                        tmp_path):
        from_signer, from_verifier = tmp_path / "a.pub", tmp_path / "b.pub"
        save_public_key(rsa_signer, str(from_signer))
        save_public_key(rsa_signer.verifier_for_public_key(),
                        str(from_verifier))
        assert from_signer.read_text() == from_verifier.read_text()

    def test_null_key_file_roundtrips(self, tmp_path):
        signer = NullSigner(key=b"k", signature_size=32)
        path = str(tmp_path / "null.pub")
        save_public_key(signer, path)
        assert load_public_key(path).verify(b"m", signer.sign(b"m"))

    def test_unknown_signer_type_is_refused(self, tmp_path):
        with pytest.raises(CryptoError, match="cannot serialize"):
            save_public_key(object(), str(tmp_path / "x.pub"))

    @pytest.mark.parametrize("text,match", [
        ("", "malformed public key file"),
        ("rsa sha1 123", "malformed public key file"),
        ("rsa sha1 zz 10001", "malformed public key file"),
        ("null not-hex 16", "malformed public key file"),
        ("dsa 1 2", "unknown public key kind 'dsa'"),
    ], ids=["empty", "rsa-short", "rsa-bad-hex", "null-bad-hex", "unknown"])
    def test_malformed_key_file_is_typed(self, tmp_path, text, match):
        path = tmp_path / "bad.pub"
        path.write_text(text)
        with pytest.raises(CryptoError, match=match):
            load_public_key(str(path))
