"""Strict artifact rejection: truncation, bit flips, wrong versions.

Every corrupted variant must be rejected with
:class:`~repro.errors.ArtifactError` and nothing else — artifacts cross
machines, so the loader is an attack surface exactly like the wire
decoders.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ArtifactError
from repro.store import load_method
from repro.store.pack import ARTIFACT_MAGIC, ARTIFACT_VERSION


@pytest.fixture(scope="module")
def artifact_bytes(artifact_paths):
    with open(artifact_paths["LDM"], "rb") as infile:
        return infile.read()


def _expect_rejection(tmp_path, data: bytes, label: str) -> None:
    path = str(tmp_path / "corrupt.rspv")
    with open(path, "wb") as out:
        out.write(data)
    try:
        load_method(path)
    except ArtifactError:
        return
    except Exception as exc:  # noqa: BLE001 — the assertion itself
        pytest.fail(f"{label}: untyped {type(exc).__name__}: {exc}")
    pytest.fail(f"{label}: corrupted artifact was accepted")


class TestTruncation:
    def test_every_prefix_is_rejected(self, artifact_bytes, tmp_path):
        length = len(artifact_bytes)
        cuts = {0, 1, len(ARTIFACT_MAGIC) - 1, len(ARTIFACT_MAGIC),
                20, 50, 200, length // 2, length - 1}
        for cut in sorted(c for c in cuts if c < length):
            _expect_rejection(tmp_path, artifact_bytes[:cut], f"cut@{cut}")

    def test_trailing_garbage_is_rejected(self, artifact_bytes, tmp_path):
        _expect_rejection(tmp_path, artifact_bytes + b"\x00" * 3, "trailing")


class TestBitFlips:
    def test_sampled_flips_everywhere(self, artifact_bytes, tmp_path):
        rng = random.Random(2010)
        length = len(artifact_bytes)
        # Dense coverage of the header, sampled coverage of the body.
        positions = set(range(0, min(length, 400), 7))
        positions.update(rng.randrange(length) for _ in range(120))
        for position in sorted(positions):
            flipped = bytearray(artifact_bytes)
            flipped[position] ^= 1 << rng.randrange(8)
            _expect_rejection(tmp_path, bytes(flipped), f"flip@{position}")


class TestWrongVersionsAndFiles:
    def test_not_an_artifact(self, tmp_path):
        _expect_rejection(tmp_path, b"definitely not an artifact", "garbage")

    def test_empty_file(self, tmp_path):
        _expect_rejection(tmp_path, b"", "empty")

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_method(str(tmp_path / "missing.rspv"))

    def test_graph_file_is_not_an_artifact(self, tmp_path, road300):
        from repro.graph.io import write_graph

        path = str(tmp_path / "net.txt")
        write_graph(road300, path)
        with pytest.raises(ArtifactError):
            load_method(path)

    @pytest.mark.parametrize("version", [
        1,                     # packed before HYP's tile layout: stale leaves
        ARTIFACT_VERSION + 1,
    ])
    def test_other_format_versions(self, artifact_bytes, tmp_path, version):
        # The varint after the magic is the container format version;
        # it encodes as one byte, so swapping that byte crafts an
        # otherwise well-formed artifact of another version.
        magic_len = len(ARTIFACT_MAGIC)
        assert artifact_bytes[magic_len] == ARTIFACT_VERSION
        data = (artifact_bytes[:magic_len] + bytes([version])
                + artifact_bytes[magic_len + 1:])
        path = tmp_path / f"v{version}.rspv"
        path.write_bytes(data)
        with pytest.raises(ArtifactError, match="format version"):
            load_method(str(path))

    def test_random_noise_fuzz(self, tmp_path):
        rng = random.Random(7)
        for size in (1, 8, 64, 300):
            noise = bytes(rng.randrange(256) for _ in range(size))
            _expect_rejection(tmp_path, ARTIFACT_MAGIC + noise, f"noise{size}")
