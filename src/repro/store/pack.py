"""The ``.rspv`` pack: a versioned binary container for serve state.

Layout (all integers are the canonical varints of
:mod:`repro.encoding` unless marked *raw*)::

    +----------+---------+------------------+-------------------+
    | magic    | format  | header sha-256   | header blob        |
    | 8 bytes  | varint  | 32 bytes raw     | varint len + body  |
    +----------+---------+------------------+-------------------+
    | padding to a 64-byte boundary                              |
    | section 0 bytes ... padding ... section 1 bytes ...        |
    +------------------------------------------------------------+

The header blob carries the method name, the graph version, the
(encoded) build/publish parameter maps, the owner-signed descriptor
verbatim, and the section table: per section a name, a kind (``bytes``
or a numpy dtype string), a shape, a *raw* 8-byte offset/length pair
and a SHA-256 digest.  Every section starts on a 64-byte boundary so
numeric sections can be consumed zero-copy as aligned numpy views of
the mapped file.

Integrity is layered: the header digest catches any flip in the
metadata (a tampered section length can therefore never be trusted),
the per-section digests catch flips in the data, and the signed
descriptor inside the header ties the whole artifact to the owner's
key.  :class:`ArtifactReader` verifies the first two by default; the
third is the client protocol's job, exactly as for a live service.

Raw offsets/lengths are fixed-width on purpose: the header's byte
length is then independent of where the sections land, so the writer
lays the file out in a single deterministic pass — byte-identical
output for identical state, which is what makes artifact digests a
meaningful build fingerprint.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from repro.encoding import Decoder, Encoder, encode_uvarint
from repro.errors import ArtifactError, EncodingError

#: Leading artifact bytes ("RSPV PacK", versioned separately from the
#: wire protocol's frame magic).
ARTIFACT_MAGIC = b"RSPVPK\x00\x01"

#: Container format version; bump on breaking layout changes.  2: HYP's
#: distance tree stores its leaves by cell pair, so the proofs a
#: version-1 pack would serve point at the wrong leaves.  3: LDM's
#: signed parameters carry the slack Δ and its build params the drift.
ARTIFACT_VERSION = 3

#: Section alignment: one cache line covers every numpy dtype this
#: package stores, and keeps mapped views alignment-safe.
SECTION_ALIGN = 64

#: Section kind tag for raw byte blobs (anything else is a numpy
#: dtype string such as ``"<f8"``).
KIND_BYTES = "bytes"

_U64 = struct.Struct(">Q")

#: numpy dtypes a pack may carry; an open-ended dtype string from an
#: untrusted file must not reach ``np.dtype`` unfiltered.
_ALLOWED_DTYPES = ("<f8", "<f4", "<i8", "<i4", "<u8", "<u4", "|u1", "|i1")


@dataclass(frozen=True)
class SectionInfo:
    """One section-table entry."""

    name: str
    kind: str
    shape: tuple[int, ...]
    offset: int
    length: int
    digest: bytes


def _digest(view) -> bytes:
    return hashlib.sha256(view).digest()


def _dtype_for(kind: str, name: str) -> np.dtype:
    if kind not in _ALLOWED_DTYPES:
        raise ArtifactError(f"section {name!r} has unsupported kind {kind!r}")
    return np.dtype(kind)


# ----------------------------------------------------------------------
# Parameter maps
# ----------------------------------------------------------------------
_P_INT = 0
_P_FLOAT = 1
_P_STR = 2
_P_BOOL = 3
_P_INT_SEQ = 4
_P_INT_MAP = 5
_P_EDGE_WEIGHTS = 6

#: Parameter value shapes the methods actually record; anything else in
#: a params dict is a programming error surfaced at pack time.


def encode_params(params: dict) -> bytes:
    """Canonical encoding of a build/publish parameter map.

    Keys are sorted, so the encoding — and therefore the artifact
    digest — is independent of dict construction order.
    """
    enc = Encoder()
    enc.write_uint(len(params))
    for key in sorted(params):
        if not isinstance(key, str):
            raise ArtifactError(f"parameter keys must be strings, got {key!r}")
        value = params[key]
        enc.write_str(key)
        # bool before int: bool is an int subclass.
        if isinstance(value, bool):
            enc.write_uint(_P_BOOL).write_bool(value)
        elif isinstance(value, int):
            enc.write_uint(_P_INT).write_int(value)
        elif isinstance(value, float):
            enc.write_uint(_P_FLOAT).write_f64(value)
        elif isinstance(value, str):
            enc.write_uint(_P_STR).write_str(value)
        elif isinstance(value, (tuple, list)) and \
                all(isinstance(v, int) for v in value):
            enc.write_uint(_P_INT_SEQ).write_uint_seq(value)
        elif isinstance(value, dict) and \
                all(isinstance(k, int) and isinstance(v, int)
                    for k, v in value.items()):
            enc.write_uint(_P_INT_MAP).write_uint(len(value))
            for k in sorted(value):
                enc.write_int(k).write_int(value[k])
        elif isinstance(value, dict) and \
                all(isinstance(w, float) for w in value.values()):
            enc.write_uint(_P_EDGE_WEIGHTS).write_uint(len(value))
            for (u, v), w in sorted(value.items()):
                enc.write_int(u).write_int(v).write_f64(w)
        else:
            raise ArtifactError(
                f"parameter {key!r} has unsupported type {type(value).__name__}"
            )
    return enc.getvalue()


def decode_params(data: bytes) -> dict:
    """Inverse of :func:`encode_params`; strict and typed."""
    try:
        dec = Decoder(bytes(data))
        params: dict = {}
        for _ in range(dec.read_count(2)):
            key = dec.read_str()
            if key in params:
                raise ArtifactError(f"duplicate parameter {key!r}")
            tag = dec.read_uint()
            if tag == _P_BOOL:
                params[key] = dec.read_bool()
            elif tag == _P_INT:
                params[key] = dec.read_int()
            elif tag == _P_FLOAT:
                params[key] = dec.read_f64()
            elif tag == _P_STR:
                params[key] = dec.read_str()
            elif tag == _P_INT_SEQ:
                params[key] = tuple(dec.read_uint_seq())
            elif tag == _P_INT_MAP:
                entries = [(dec.read_int(), dec.read_int())
                           for _ in range(dec.read_count(2))]
                params[key] = dict(entries)
            elif tag == _P_EDGE_WEIGHTS:
                params[key] = {(dec.read_int(), dec.read_int()): dec.read_f64()
                               for _ in range(dec.read_count(10))}
            else:
                raise ArtifactError(f"unknown parameter tag {tag}")
        dec.expect_end()
        return params
    except EncodingError as exc:
        raise ArtifactError(f"malformed parameter map: {exc}") from exc


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class ArtifactWriter:
    """Assemble and write one ``.rspv`` pack.

    Sections are laid out in insertion order; the write is a pure
    function of the supplied content, so re-packing identical state
    yields a byte-identical file.
    """

    def __init__(self, *, method: str, graph_version: int, algo_sp: str,
                 build_params: dict, publish_params: dict,
                 descriptor_bytes: bytes) -> None:
        self.method = method
        self.graph_version = graph_version
        self.algo_sp = algo_sp
        self.build_params_blob = encode_params(build_params)
        self.publish_params_blob = encode_params(publish_params)
        self.descriptor_bytes = bytes(descriptor_bytes)
        #: (name, kind, shape, flat bytes-like payload)
        self._sections: list[tuple[str, str, tuple[int, ...], object]] = []
        self._names: set[str] = set()

    def _add(self, name: str, kind: str, shape: tuple[int, ...],
             data) -> None:
        if name in self._names:
            raise ArtifactError(f"duplicate section {name!r}")
        self._names.add(name)
        self._sections.append((name, kind, shape, data))

    def add_bytes(self, name: str, data: bytes) -> None:
        """Add a raw byte-blob section."""
        data = bytes(data)
        self._add(name, KIND_BYTES, (len(data),), data)

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Add a numpy section (stored C-contiguous, little-endian).

        An array already in that form is hashed and written in place,
        not copied: leave it unchanged until :meth:`write` returns.
        """
        shape = tuple(int(s) for s in np.shape(array))  # before 0-d -> (1,)
        array = np.ascontiguousarray(array)
        kind = array.dtype.newbyteorder("<").str if array.dtype.byteorder == ">" \
            else array.dtype.str
        if kind not in _ALLOWED_DTYPES:
            raise ArtifactError(
                f"section {name!r}: dtype {array.dtype} is not packable"
            )
        data = np.ascontiguousarray(array, dtype=np.dtype(kind))
        self._add(name, kind, shape, data.reshape(-1).view(np.uint8))

    # ------------------------------------------------------------------
    def _header(self, infos: "list[SectionInfo]") -> bytes:
        enc = Encoder()
        enc.write_str(self.method)
        enc.write_uint(self.graph_version)
        enc.write_str(self.algo_sp)
        enc.write_bytes(self.build_params_blob)
        enc.write_bytes(self.publish_params_blob)
        enc.write_bytes(self.descriptor_bytes)
        enc.write_uint(len(infos))
        for info in infos:
            enc.write_str(info.name)
            enc.write_str(info.kind)
            enc.write_uint_seq(info.shape)
            enc.write_raw(_U64.pack(info.offset))
            enc.write_raw(_U64.pack(info.length))
            enc.write_raw(info.digest)
        return enc.getvalue()

    def write(self, path: str) -> None:
        """Write the pack atomically (temp file + rename)."""
        # Raw 8-byte offsets keep the header length independent of the
        # section positions, so one dry run with zero offsets sizes it.
        dry = [
            SectionInfo(name, kind, shape, 0, len(data), _digest(data))
            for name, kind, shape, data in self._sections
        ]
        header = self._header(dry)
        prefix_len = (len(ARTIFACT_MAGIC)
                      + len(Encoder().write_uint(ARTIFACT_VERSION).getvalue())
                      + hashlib.sha256().digest_size
                      + len(Encoder().write_bytes(header).getvalue()))
        offset = _align(prefix_len)
        infos: list[SectionInfo] = []
        for entry, info in zip(self._sections, dry):
            infos.append(SectionInfo(info.name, info.kind, info.shape,
                                     offset, info.length, info.digest))
            offset = _align(offset + info.length)
        header = self._header(infos)

        tmp = f"{path}.tmp"
        with open(tmp, "wb") as out:
            out.write(ARTIFACT_MAGIC)
            out.write(Encoder().write_uint(ARTIFACT_VERSION).getvalue())
            out.write(_digest(header))
            out.write(Encoder().write_bytes(header).getvalue())
            pos = prefix_len
            for (name, kind, shape, data), info in zip(self._sections, infos):
                out.write(b"\x00" * (info.offset - pos))
                out.write(data)
                pos = info.offset + info.length
        os.replace(tmp, path)


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class ArtifactReader:
    """Open, validate and expose one ``.rspv`` pack.

    ``mmap_mode="c"`` (the default) maps the file copy-on-write:
    :meth:`array` views are zero-copy and writable, but writes stay
    private to the process — exactly what ``apply_update`` on an
    artifact-backed method needs.  ``mmap_mode=None`` reads the file
    into memory instead (no open file handle retained by views).

    The reader object must outlive any arrays it handed out when
    mapped; :func:`repro.store.load_method` keeps it referenced from
    the loaded method for that reason.
    """

    def __init__(self, path: str, *, verify: bool = True,
                 mmap_mode: "str | None" = "c") -> None:
        self.path = path
        self._views: list[memoryview] = []
        try:
            with open(path, "rb") as infile:
                if mmap_mode is None:
                    self._buffer = infile.read()
                elif mmap_mode == "c":
                    self._buffer = mmap.mmap(infile.fileno(), 0,
                                             access=mmap.ACCESS_COPY)
                else:
                    raise ArtifactError(
                        f"unknown mmap_mode {mmap_mode!r}; use 'c' or None"
                    )
        except OSError as exc:
            raise ArtifactError(f"cannot open artifact {path!r}: {exc}") from exc
        except ValueError as exc:  # zero-length file cannot be mapped
            raise ArtifactError(f"artifact {path!r} is empty") from exc
        self._parse(verify=verify)

    # ------------------------------------------------------------------
    def _parse(self, *, verify: bool) -> None:
        data = self._buffer
        magic_len = len(ARTIFACT_MAGIC)
        if len(data) < magic_len or bytes(data[:magic_len]) != ARTIFACT_MAGIC:
            raise ArtifactError(f"{self.path!r} is not a .rspv artifact")
        try:
            dec = Decoder(data)
            dec.read_raw(magic_len)
            version = dec.read_uint()
            if version != ARTIFACT_VERSION:
                raise ArtifactError(
                    f"artifact format version {version} is not supported "
                    f"(this build reads version {ARTIFACT_VERSION})"
                )
            header_digest = dec.read_raw(hashlib.sha256().digest_size)
            header = dec.read_bytes()
        except EncodingError as exc:
            raise ArtifactError(f"truncated artifact header: {exc}") from exc
        if _digest(header) != header_digest:
            raise ArtifactError(
                "artifact header digest mismatch (corrupted or tampered file)"
            )
        try:
            hdec = Decoder(header)
            self.method = hdec.read_str()
            self.graph_version = hdec.read_uint()
            self.algo_sp = hdec.read_str()
            self.build_params = decode_params(hdec.read_bytes())
            self.publish_params = decode_params(hdec.read_bytes())
            self.descriptor_bytes = hdec.read_bytes()
            sections: list[SectionInfo] = []
            for _ in range(hdec.read_count(4)):
                name = hdec.read_str()
                kind = hdec.read_str()
                shape = tuple(hdec.read_uint_seq())
                offset = _U64.unpack(hdec.read_raw(8))[0]
                length = _U64.unpack(hdec.read_raw(8))[0]
                digest = hdec.read_raw(hashlib.sha256().digest_size)
                sections.append(SectionInfo(name, kind, shape, offset,
                                            length, digest))
            hdec.expect_end()
        except EncodingError as exc:
            raise ArtifactError(f"malformed artifact header: {exc}") from exc

        self._payload_start = (magic_len + len(encode_uvarint(version))
                               + hashlib.sha256().digest_size
                               + len(encode_uvarint(len(header))) + len(header))
        self.sections: dict[str, SectionInfo] = {}
        previous_end = 0
        for info in sections:
            if info.name in self.sections:
                raise ArtifactError(f"duplicate section {info.name!r}")
            if info.offset % SECTION_ALIGN:
                raise ArtifactError(
                    f"section {info.name!r} is not {SECTION_ALIGN}-byte aligned"
                )
            if info.offset < previous_end or \
                    info.offset + info.length > len(data):
                raise ArtifactError(
                    f"section {info.name!r} does not fit the file "
                    f"(offset {info.offset}, length {info.length}, "
                    f"file {len(data)} bytes)"
                )
            if info.kind != KIND_BYTES:
                expected = _expected_length(info)
                if info.length != expected:
                    raise ArtifactError(
                        f"section {info.name!r}: length {info.length} does "
                        f"not match kind {info.kind!r} shape {info.shape} "
                        f"({expected} bytes)"
                    )
            elif info.shape != (info.length,):
                raise ArtifactError(
                    f"byte section {info.name!r} declares shape {info.shape} "
                    f"for {info.length} bytes"
                )
            previous_end = info.offset + info.length
            self.sections[info.name] = info
        if verify:
            self.verify_sections()

    def verify_sections(self) -> None:
        """Check every section digest (reads the whole file once).

        Also checks that the inter-section padding is zero and that the
        file ends exactly where the last section does — padding and
        tails are outside every digest, so without this a flipped
        padding bit (or appended garbage) would go unnoticed.
        """
        view = memoryview(self._buffer)
        try:
            position = self._payload_start
            for info in self.sections.values():
                if view[position:info.offset].tobytes().strip(b"\x00"):
                    raise ArtifactError(
                        f"non-zero padding before section {info.name!r}"
                    )
                if _digest(view[info.offset:info.offset + info.length]) \
                        != info.digest:
                    raise ArtifactError(
                        f"section {info.name!r} digest mismatch (corrupted "
                        f"or tampered artifact)"
                    )
                position = info.offset + info.length
            if position != len(view):
                raise ArtifactError(
                    f"{len(view) - position} trailing bytes after the last "
                    f"section"
                )
        finally:
            view.release()

    # ------------------------------------------------------------------
    def _info(self, name: str) -> SectionInfo:
        info = self.sections.get(name)
        if info is None:
            raise ArtifactError(f"artifact has no section {name!r}")
        return info

    def view(self, name: str) -> memoryview:
        """A byte-blob section as a zero-copy view of the buffer.

        Consumers copy out what they keep; :meth:`close` releases the
        view itself.
        """
        info = self._info(name)
        if info.kind != KIND_BYTES:
            raise ArtifactError(f"section {name!r} is an array, not bytes")
        view = memoryview(self._buffer)[info.offset:info.offset + info.length]
        self._views.append(view)
        return view

    def array(self, name: str) -> np.ndarray:
        """A numpy section as a view of the mapped file (zero-copy)."""
        info = self._info(name)
        if info.kind == KIND_BYTES:
            raise ArtifactError(f"section {name!r} is bytes, not an array")
        dtype = _dtype_for(info.kind, name)
        count = int(np.prod(info.shape, dtype=np.int64)) if info.shape else 1
        arr = np.frombuffer(self._buffer, dtype=dtype, count=count,
                            offset=info.offset)
        if not arr.flags.writeable:
            # Eager (non-mmap) mode reads into an immutable bytes
            # buffer; hand out a private writable copy so update paths
            # behave identically to the copy-on-write mapping.
            arr = arr.copy()
        return arr.reshape(info.shape)

    def close(self) -> None:
        """Release the mapping.  Invalidates any arrays handed out."""
        for view in self._views:
            view.release()
        self._views.clear()
        if isinstance(self._buffer, mmap.mmap):
            self._buffer.close()
        self._buffer = b""


def _expected_length(info: SectionInfo) -> int:
    itemsize = _dtype_for(info.kind, info.name).itemsize
    return int(np.prod(info.shape, dtype=np.int64)) * itemsize if info.shape \
        else itemsize


def file_digest(path: str) -> bytes:
    """SHA-256 of the artifact file — the build fingerprint the
    determinism guarantee is stated over."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as infile:
            while chunk := infile.read(1 << 20):
                digest.update(chunk)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from exc
    return digest.digest()
