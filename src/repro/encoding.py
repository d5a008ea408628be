"""Canonical binary encoding.

The same byte encoding is used for two purposes:

* **Hashing** — extended tuples and distance tuples are hashed by the
  Merkle trees, so the encoding must be deterministic (the provider and
  the client must derive identical digests from identical values).
* **Size accounting** — the paper reports communication overhead in
  KBytes, so proofs are measured by serializing them with this encoder.

The format is a simple length-delimited scheme:

* unsigned integers: LEB128 varint;
* signed integers: zigzag + varint;
* floats: IEEE-754 big-endian, 8 bytes (``f64``) or 4 bytes (``f32``);
* bytes / strings: varint length prefix followed by the payload;
* booleans: one byte.

No self-description is included: decoding requires knowing the schema,
which is fine because every message type in this package has a fixed
layout.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.errors import EncodingError

_F64 = struct.Struct(">d")
_F32 = struct.Struct(">f")


def _build_uvarint_table(limit: int) -> "tuple[bytes, ...]":
    out = []
    for value in range(limit):
        if value < 0x80:
            out.append(bytes([value]))
        else:
            out.append(bytes([(value & 0x7F) | 0x80, value >> 7]))
    return tuple(out)


#: Precomputed encodings for small values — leaf positions, payload
#: lengths, node ids and proof-entry coordinates are overwhelmingly
#: below this bound, and proof serialization is a serving hot path.
_TABLE_LIMIT = 1 << 14
_UVARINT_TABLE = _build_uvarint_table(_TABLE_LIMIT)


def encode_uvarint(value: int) -> bytes:
    """LEB128 varint encoding of an unsigned integer.

    Standalone form of :meth:`Encoder.write_uint` for batch encoders
    that precompute per-id prefixes instead of running an
    :class:`Encoder` per record.
    """
    if 0 <= value < _TABLE_LIMIT:
        return _UVARINT_TABLE[value]
    if value < 0:
        raise EncodingError(f"write_uint requires value >= 0, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    return bytes(out)


def pack_codes_rows(rows, bits: int) -> "list[bytes]":
    """Batch bit-packing: one :meth:`Encoder.write_packed_codes`
    bitstream (without the leading count varint) per matrix row.

    ``rows`` is a ``(k, c)`` integer array; the return value is ``k``
    byte strings, each byte-identical to the stream the per-value
    Python packer emits for that row.  The whole batch is four
    vectorized NumPy passes — this is what makes re-encoding hundreds
    of landmark tuples per live update affordable.
    """
    import numpy as np

    if bits <= 0 or bits > 64:
        raise EncodingError(f"bits must be in [1, 64], got {bits}")
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise EncodingError(f"expected a (rows, codes) matrix, got {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= (1 << bits)):
        raise EncodingError(f"code out of range for {bits} bits")
    k, c = rows.shape
    if c == 0:
        return [b""] * k
    # Narrowest big-endian container covering the code width: unpackbits
    # then touches 2/4/8x fewer bytes for the common small-bits cases.
    if bits <= 16:
        width, dtype = 16, ">u2"
    elif bits <= 32:
        width, dtype = 32, ">u4"
    else:
        width, dtype = 64, ">u8"
    as_bytes = rows.astype(dtype).reshape(k, c, 1).view(np.uint8)
    all_bits = np.unpackbits(as_bytes, axis=2)
    wanted = all_bits[:, :, width - bits:].reshape(k, c * bits)
    packed = np.packbits(wanted, axis=1)  # zero-pads the final byte, as
    return [row.tobytes() for row in packed]  # the streaming packer does


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one (0, -1, 1, -2 -> 0, 1, 2, 3)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def _read_uvarint(data: bytes, pos: int) -> "tuple[int, int]":
    """``(value, end)`` of the LEB128 varint at *pos*, in its one
    canonical form: an overlong one (a zero final byte after a
    continuation byte, as in ``b"\\x81\\x00"`` for 1) is refused, so
    each value has exactly one byte form."""
    result = shift = 0
    while True:
        if pos >= len(data):
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            if not byte and shift:
                raise EncodingError("overlong varint")
            return result, pos
        shift += 7
        if shift > 70:
            raise EncodingError("varint too long")


class Encoder:
    """Append-only canonical encoder.

    Example
    -------
    >>> enc = Encoder()
    >>> enc.write_uint(300).write_str("hi").getvalue()
    b'\\xac\\x02\\x02hi'
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def write_uint(self, value: int) -> "Encoder":
        """Write an unsigned LEB128 varint."""
        self._parts.append(encode_uvarint(value))
        return self

    def write_int(self, value: int) -> "Encoder":
        """Write a signed integer (zigzag varint)."""
        if value >= 0:
            return self.write_uint(value << 1)
        return self.write_uint(((-value) << 1) - 1)

    def write_f64(self, value: float) -> "Encoder":
        """Write a 64-bit IEEE-754 float."""
        self._parts.append(_F64.pack(value))
        return self

    def write_f32(self, value: float) -> "Encoder":
        """Write a 32-bit IEEE-754 float (lossy)."""
        self._parts.append(_F32.pack(value))
        return self

    def write_bool(self, value: bool) -> "Encoder":
        """Write a boolean as one byte."""
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def write_bytes(self, value: bytes) -> "Encoder":
        """Write length-prefixed bytes."""
        self.write_uint(len(value))
        self._parts.append(bytes(value))
        return self

    def write_raw(self, value: bytes) -> "Encoder":
        """Write bytes with no length prefix (fixed-size fields)."""
        self._parts.append(bytes(value))
        return self

    def write_str(self, value: str) -> "Encoder":
        """Write a length-prefixed UTF-8 string."""
        return self.write_bytes(value.encode("utf-8"))

    def write_uint_seq(self, values: Iterable[int]) -> "Encoder":
        """Write a count followed by each unsigned integer."""
        values = list(values)
        table = _UVARINT_TABLE
        self._parts.append(b"".join([encode_uvarint(len(values))] + [
            table[v] if 0 <= v < _TABLE_LIMIT else encode_uvarint(v)
            for v in values]))
        return self

    def write_bytes_seq(self, values: Sequence, keys: int = 0) -> "Encoder":
        """Write a count followed by each length-prefixed byte string;
        with *keys*, each value is a tuple ``(*integers, bytes)`` whose
        unsigned integers precede the string (see
        :meth:`Decoder.read_bytes_seq`)."""
        table = _UVARINT_TABLE
        parts = [encode_uvarint(len(values))]
        for value in values:
            if keys:
                parts += [table[v] if 0 <= v < _TABLE_LIMIT
                          else encode_uvarint(v) for v in value[:keys]]
                value = value[keys]
            size = len(value)
            parts += (table[size] if size < _TABLE_LIMIT
                      else encode_uvarint(size), value)
        self._parts.append(b"".join(parts))
        return self

    def write_f64_seq(self, values: Iterable[float]) -> "Encoder":
        """Write a count followed by each 64-bit float."""
        values = list(values)
        self.write_uint(len(values))
        for value in values:
            self.write_f64(value)
        return self

    def write_packed_codes(self, codes: Sequence[int], bits: int) -> "Encoder":
        """Write small unsigned integers packed at *bits* bits each.

        Used for quantized landmark distance vectors: ``c`` codes of ``b``
        bits occupy ``ceil(c*b/8)`` bytes, exactly as the paper accounts
        for them.
        """
        if bits <= 0 or bits > 64:
            raise EncodingError(f"bits must be in [1, 64], got {bits}")
        self.write_uint(len(codes))
        acc = 0
        acc_bits = 0
        out = bytearray()
        limit = 1 << bits
        for code in codes:
            if code < 0 or code >= limit:
                raise EncodingError(f"code {code} out of range for {bits} bits")
            acc = (acc << bits) | code
            acc_bits += bits
            while acc_bits >= 8:
                acc_bits -= 8
                out.append((acc >> acc_bits) & 0xFF)
        if acc_bits:
            out.append((acc << (8 - acc_bits)) & 0xFF)
        self._parts.append(bytes(out))
        return self

    def getvalue(self) -> bytes:
        """Return everything written so far as one bytes object."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class Decoder:
    """Sequential decoder mirroring :class:`Encoder`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_uint(self) -> int:
        """Read an unsigned LEB128 varint (see :func:`_read_uvarint`)."""
        data, pos = self._data, self._pos
        if pos < len(data) and data[pos] < 0x80:  # one byte, the common case
            self._pos = pos + 1
            return data[pos]
        value, self._pos = _read_uvarint(data, pos)
        return value

    def read_int(self) -> int:
        """Read a signed (zigzag) integer."""
        raw = self.read_uint()
        return (raw >> 1) if (raw & 1) == 0 else -((raw + 1) >> 1)

    def _take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise EncodingError(
                f"truncated payload: wanted {count} bytes, "
                f"{len(self._data) - self._pos} remaining"
            )
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def read_f64(self) -> float:
        """Read a 64-bit float."""
        return _F64.unpack(self._take(8))[0]

    def read_f32(self) -> float:
        """Read a 32-bit float."""
        return _F32.unpack(self._take(4))[0]

    def read_bool(self) -> bool:
        """Read a boolean byte."""
        byte = self._take(1)[0]
        if byte not in (0, 1):
            raise EncodingError(f"invalid boolean byte {byte!r}")
        return bool(byte)

    def read_bytes(self) -> bytes:
        """Read length-prefixed bytes."""
        return self._take(self.read_uint())

    def read_raw(self, count: int) -> bytes:
        """Read exactly *count* bytes (no length prefix)."""
        return self._take(count)

    def read_str(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 string") from exc

    def read_count(self, min_item_bytes: int = 1) -> int:
        """Read a count varint, bounded by the bytes actually present.

        Every counted item occupies at least *min_item_bytes* in the
        stream, so a count exceeding ``remaining / min_item_bytes`` can
        only come from a corrupted or adversarial payload: reject it up
        front (as :class:`EncodingError`) instead of looping into a
        truncation error item by item — or, worse, pre-sizing buffers
        from attacker-controlled lengths.
        """
        count = self.read_uint()
        if count * min_item_bytes > self.remaining:
            raise EncodingError(
                f"count {count} (>= {min_item_bytes} bytes each) exceeds "
                f"the {self.remaining} bytes remaining"
            )
        return count

    def read_uint_seq(self) -> list[int]:
        """Read a count-prefixed sequence of unsigned integers."""
        return self._read_flat(self.read_count(1), 0)

    def read_bytes_seq(self, keys: int = 0) -> list:
        """Read a count-prefixed sequence of length-prefixed byte
        strings, each preceded by *keys* unsigned integers, as one flat
        list: ``keys=2`` reads ``[int, int, bytes, int, int, bytes, ...]``."""
        return self._read_flat(self.read_count(1 + keys) * (keys + 1), keys + 1)

    def _read_flat(self, items: int, every: int) -> list:
        """*items* varints in one pass, every *every*-th of them (none
        when 0) a length followed by the byte string read in its place.
        One- and two-byte varints (positions, lengths and coordinates
        rarely need more) are decoded inline, the rest by
        :func:`_read_uvarint`."""
        data, pos, size = self._data, self._pos, len(self._data)
        out = []
        append = out.append
        countdown = every
        try:
            for _ in range(items):
                value = data[pos]
                if value < 0x80:
                    pos += 1
                elif 0 < data[pos + 1] < 0x80:
                    value = value & 0x7F | data[pos + 1] << 7
                    pos += 2
                else:
                    value, pos = _read_uvarint(data, pos)
                countdown -= 1
                if not countdown:
                    countdown = every
                    if pos + value > size:
                        raise EncodingError(
                            f"truncated payload: wanted {value} bytes, "
                            f"{size - pos} remaining")
                    pos += value
                    value = data[pos - value:pos]
                append(value)
        except IndexError:
            raise EncodingError("truncated varint") from None
        self._pos = pos
        return out

    def read_f64_seq(self) -> list[float]:
        """Read a count-prefixed sequence of 64-bit floats."""
        return [self.read_f64() for _ in range(self.read_count(8))]

    def read_packed_codes(self, bits: int) -> list[int]:
        """Read codes written by :meth:`Encoder.write_packed_codes`."""
        if bits <= 0 or bits > 64:
            raise EncodingError(f"bits must be in [1, 64], got {bits}")
        count = self.read_uint()
        total_bits = count * bits
        payload = self._take((total_bits + 7) // 8)
        codes: list[int] = []
        acc = int.from_bytes(payload, "big")
        pad = len(payload) * 8 - total_bits
        acc >>= pad
        mask = (1 << bits) - 1
        for i in range(count):
            shift = (count - 1 - i) * bits
            codes.append((acc >> shift) & mask)
        return codes

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        """Raise :class:`EncodingError` unless all bytes were consumed."""
        if self.remaining:
            raise EncodingError(f"{self.remaining} trailing bytes")
