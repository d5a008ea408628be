"""The .rspv container: layout, parameter codec, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.encoding import Encoder
from repro.errors import ArtifactError
from repro.store import (
    ArtifactReader,
    ArtifactWriter,
    decode_params,
    encode_params,
    save_method,
)
from repro.store.pack import SECTION_ALIGN, file_digest


def _writer(**overrides) -> ArtifactWriter:
    defaults = dict(method="DIJ", graph_version=7, algo_sp="dijkstra",
                    build_params={"fanout": 2}, publish_params={"fanout": 2},
                    descriptor_bytes=b"descriptor-bytes")
    defaults.update(overrides)
    return ArtifactWriter(**defaults)


class TestParamsCodec:
    def test_roundtrip_every_supported_type(self):
        params = {
            "fanout": 2,
            "xi": 50.0,
            "ordering": "hbt",
            "flag": True,
            "landmarks": (3, 1, 4),
            "plan": {10: 3, 7: 1},
            "drift": {(4, 9): 61.25, (1, 2): 0.5},
        }
        decoded = decode_params(encode_params(params))
        assert decoded == params
        assert isinstance(decoded["landmarks"], tuple)
        assert isinstance(decoded["plan"], dict)

    def test_key_order_does_not_change_bytes(self):
        a = encode_params({"a": 1, "b": 2})
        b = encode_params({"b": 2, "a": 1})
        assert a == b

    def test_unsupported_type_is_typed(self):
        with pytest.raises(ArtifactError):
            encode_params({"bad": object()})

    def test_malformed_bytes_are_typed(self):
        blob = encode_params({"a": 1})
        for cut in range(len(blob)):
            try:
                decode_params(blob[:cut] + b"\xff")
            except ArtifactError:
                continue
            except Exception as exc:  # noqa: BLE001 — the assertion itself
                pytest.fail(f"cut {cut}: untyped {type(exc).__name__}: {exc}")


class TestPackLayout:
    def test_roundtrip_sections(self, tmp_path):
        writer = _writer()
        writer.add_bytes("blob/a", b"hello world")
        writer.add_array("arr/f", np.arange(12, dtype=np.float64).reshape(3, 4))
        writer.add_array("arr/i", np.arange(5, dtype=np.int32))
        path = str(tmp_path / "t.rspv")
        writer.write(path)

        reader = ArtifactReader(path)
        assert reader.method == "DIJ"
        assert reader.graph_version == 7
        assert reader.algo_sp == "dijkstra"
        assert reader.build_params == {"fanout": 2}
        assert reader.descriptor_bytes == b"descriptor-bytes"
        assert reader.view("blob/a") == b"hello world"
        np.testing.assert_array_equal(
            reader.array("arr/f"),
            np.arange(12, dtype=np.float64).reshape(3, 4))
        assert reader.array("arr/i").dtype == np.int32

    def test_sections_are_aligned(self, tmp_path):
        writer = _writer()
        writer.add_bytes("a", b"x")  # 1 byte forces padding before the next
        writer.add_array("b", np.arange(3, dtype=np.float64))
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path)
        for info in reader.sections.values():
            assert info.offset % SECTION_ALIGN == 0

    def test_mmap_array_is_copy_on_write(self, tmp_path):
        writer = _writer()
        original = np.arange(6, dtype=np.float64)
        writer.add_array("m", original)
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path, mmap_mode="c")
        arr = reader.array("m")
        arr[0] = 99.0  # private write, must not reach the file
        again = ArtifactReader(path).array("m")
        np.testing.assert_array_equal(again, original)

    def test_eager_mode_returns_writable_arrays(self, tmp_path):
        writer = _writer()
        writer.add_array("m", np.arange(4, dtype=np.int64))
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        arr = ArtifactReader(path, mmap_mode=None).array("m")
        arr[0] = 5  # must not raise

    @pytest.mark.parametrize("mmap_mode", ["c", None])
    def test_close_releases_the_views_it_handed_out(self, tmp_path, mmap_mode):
        writer = _writer()
        writer.add_bytes("blob", b"0123456789")
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path, mmap_mode=mmap_mode)
        view = reader.view("blob")
        assert view[2:5] == b"234" and bytes(view) == b"0123456789"
        reader.close()  # a live export would make mmap.close() raise
        with pytest.raises(ValueError):
            view[0]

    def test_arrays_are_written_in_place_in_every_layout(self, tmp_path):
        arrays = {
            "be": np.arange(6, dtype=">f8").reshape(2, 3),
            "strided": np.arange(12, dtype=np.int64).reshape(3, 4)[:, ::2],
            "empty": np.zeros((0, 4), dtype=np.float64),
        }
        writer = _writer()
        for name, array in arrays.items():
            writer.add_array(name, array)
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path)
        for name, array in arrays.items():
            got = reader.array(name)
            assert got.shape == array.shape
            assert got.dtype == array.dtype.newbyteorder("<")
            np.testing.assert_array_equal(got, array)

    def test_zero_dimensional_array_keeps_its_shape(self, tmp_path):
        writer = _writer()
        writer.add_array("scalar", np.array(2.5))
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        got = ArtifactReader(path).array("scalar")
        assert got.shape == ()
        assert got == 2.5

    def test_duplicate_section_refused(self):
        writer = _writer()
        writer.add_bytes("a", b"x")
        with pytest.raises(ArtifactError):
            writer.add_bytes("a", b"y")

    def test_missing_section_is_typed(self, tmp_path):
        writer = _writer()
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path)
        with pytest.raises(ArtifactError):
            reader.view("nope")
        with pytest.raises(ArtifactError):
            reader.array("nope")


class TestHostileContainers:
    """Well-digested packs whose layout lies, and misuse of the API."""

    def test_unpackable_dtype_is_refused(self):
        with pytest.raises(ArtifactError, match="not packable"):
            _writer().add_array("c", np.zeros(3, dtype=np.complex128))

    def test_non_string_parameter_key_is_refused(self):
        with pytest.raises(ArtifactError, match="keys must be strings"):
            encode_params({1: 2})

    def test_duplicate_parameter_is_refused(self):
        enc = Encoder().write_uint(2)
        for value in (1, 2):
            enc.write_str("a").write_uint(0).write_int(value)
        with pytest.raises(ArtifactError, match="duplicate parameter 'a'"):
            decode_params(enc.getvalue())

    def test_unknown_parameter_tag_is_refused(self):
        blob = Encoder().write_uint(1).write_str("a").write_uint(99) \
            .getvalue()
        with pytest.raises(ArtifactError, match="unknown parameter tag 99"):
            decode_params(blob)

    def test_unknown_mmap_mode_is_refused(self, tmp_path):
        path = str(tmp_path / "t.rspv")
        _writer().write(path)
        with pytest.raises(ArtifactError, match="unknown mmap_mode"):
            ArtifactReader(path, mmap_mode="w")

    def test_sections_are_read_as_what_they_are(self, tmp_path):
        writer = _writer()
        writer.add_bytes("blob", b"abc")
        writer.add_array("arr", np.arange(3, dtype=np.int64))
        path = str(tmp_path / "t.rspv")
        writer.write(path)
        reader = ArtifactReader(path)
        with pytest.raises(ArtifactError, match="is an array, not bytes"):
            reader.view("arr")
        with pytest.raises(ArtifactError, match="is bytes, not an array"):
            reader.array("blob")

    def test_unreadable_file_digest_is_typed(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read artifact"):
            file_digest(str(tmp_path))  # a directory

    @staticmethod
    def _write_raw_sections(path, sections) -> None:
        """Write *sections* as given, past the writer's own checks."""
        writer = _writer()
        writer._sections.extend(sections)
        writer.write(path)

    @pytest.mark.parametrize("sections,match", [
        ([("a", "bytes", (1,), b"x"), ("a", "bytes", (1,), b"y")],
         "duplicate section 'a'"),
        ([("f", "<f8", (3,), b"\x00" * 16)], "does not match kind"),
        ([("b", "bytes", (5,), b"xyz")], "declares shape"),
    ], ids=["duplicate-name", "array-length", "bytes-shape"])
    def test_section_table_that_lies_is_refused(self, tmp_path, sections,
                                                match):
        path = str(tmp_path / "t.rspv")
        self._write_raw_sections(path, sections)
        with pytest.raises(ArtifactError, match=match):
            ArtifactReader(path)

    def test_header_with_trailing_bytes_is_refused(self, tmp_path):
        class PaddedHeader(ArtifactWriter):
            def _header(self, infos):
                return super()._header(infos) + b"\x00"

        path = str(tmp_path / "t.rspv")
        PaddedHeader(method="DIJ", graph_version=7, algo_sp="dijkstra",
                     build_params={}, publish_params={},
                     descriptor_bytes=b"d").write(path)
        with pytest.raises(ArtifactError, match="malformed artifact header"):
            ArtifactReader(path)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["DIJ", "FULL", "LDM", "HYP"])
    def test_same_build_packs_byte_identical(self, road300, signer,
                                             tmp_path, name):
        from tests.store.conftest import BUILDERS

        a = BUILDERS[name](road300.copy(), signer)
        b = BUILDERS[name](road300.copy(), signer)
        path_a = str(tmp_path / "a.rspv")
        path_b = str(tmp_path / "b.rspv")
        save_method(a, path_a)
        save_method(b, path_b)
        assert file_digest(path_a) == file_digest(path_b)

    def test_different_graph_changes_digest(self, road300, signer, tmp_path):
        from tests.store.conftest import BUILDERS

        a = BUILDERS["DIJ"](road300.copy(), signer)
        mutated = road300.copy()
        u, v, w = next(iter(mutated.edges()))
        mutated.update_edge_weight(u, v, w * 2)
        b = BUILDERS["DIJ"](mutated, signer)
        path_a = str(tmp_path / "a.rspv")
        path_b = str(tmp_path / "b.rspv")
        save_method(a, path_a)
        save_method(b, path_b)
        assert file_digest(path_a) != file_digest(path_b)
