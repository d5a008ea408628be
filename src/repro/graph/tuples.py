"""Extended tuples Φ(v) and distance tuples.

The *extended tuple* is the unit of authentication in every method: it
packages a node's attributes together with its full adjacency list, so
that a client holding an authenticated Φ(v) knows *all* edges incident
to v (Eq. 1 in the paper).  LDM extends it with the (quantized,
possibly compressed) landmark vector (Eq. 4); HYP extends it with the
cell id and border flag (Eq. 7).

Distance tuples ``<a, b, dist(a, b)>`` are the leaves of the distance
Merkle B-trees used by FULL and HYP.

All tuples encode canonically via :mod:`repro.encoding`, with adjacency
sorted by neighbor id, so owner, provider and client always derive the
same digests.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.encoding import Decoder, Encoder
from repro.errors import EncodingError, GraphError
from repro.graph.graph import SpatialGraph


def _canonical_adjacency(neighbors: Mapping[int, float]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted((int(v), float(w)) for v, w in neighbors.items()))


@dataclass(frozen=True)
class BaseTuple:
    """Φ(v) = <id, x, y, {<v', W(v, v')>}> — Eq. (1)."""

    node_id: int
    x: float
    y: float
    adjacency: tuple[tuple[int, float], ...]

    @classmethod
    def from_graph(cls, graph: SpatialGraph, node_id: int) -> "BaseTuple":
        """Build Φ(v) for *node_id* directly from the graph."""
        node = graph.node(node_id)
        return cls(node.id, node.x, node.y, _canonical_adjacency(graph.neighbors(node_id)))

    def _encode_header(self, enc: Encoder) -> None:
        enc.write_uint(self.node_id).write_f64(self.x).write_f64(self.y)
        enc.write_uint(len(self.adjacency))
        for nbr, w in self.adjacency:
            enc.write_uint(nbr).write_f64(w)

    def encode(self) -> bytes:
        """Canonical byte encoding (hash input and proof payload)."""
        enc = Encoder()
        self._encode_header(enc)
        return enc.getvalue()

    @staticmethod
    def _decode_header(dec: Decoder) -> tuple[int, float, float, tuple[tuple[int, float], ...]]:
        node_id = dec.read_uint()
        x = dec.read_f64()
        y = dec.read_f64()
        count = dec.read_uint()
        adjacency = tuple((dec.read_uint(), dec.read_f64()) for _ in range(count))
        return node_id, x, y, adjacency

    @classmethod
    def decode(cls, data: bytes) -> "BaseTuple":
        """Inverse of :meth:`encode`."""
        dec = Decoder(data)
        tup = cls(*cls._decode_header(dec))
        dec.expect_end()
        return tup

    @staticmethod
    def _decode_tail_columns(reader: "_LockStep") -> "dict[str, np.ndarray]":
        """Columnar form of whatever :meth:`decode` reads after the header."""
        return {}


@dataclass(frozen=True)
class LdmTuple(BaseTuple):
    """Φ(v) with landmark vector information — Eq. (4).

    Exactly one of the following holds:

    * *uncompressed*: ``codes`` carries the b-bit quantized landmark
      distance codes and ``ref_id is None``;
    * *compressed*: ``codes is None`` and ``(ref_id, eps_units)`` names
      the representative θ and the compression error ε expressed in
      integer multiples of the quantization step λ (ε is a max of
      absolute differences of quantized values, hence always a multiple
      of λ).
    """

    codes: tuple[int, ...] | None = None
    ref_id: int | None = None
    eps_units: int | None = None
    bits: int = 12

    def __post_init__(self) -> None:
        compressed = self.ref_id is not None
        if compressed == (self.codes is not None):
            raise EncodingError("LdmTuple must carry either codes or a reference")
        if compressed and self.eps_units is None:
            raise EncodingError("compressed LdmTuple needs eps_units")

    @property
    def is_compressed(self) -> bool:
        """True when this node's vector is represented by another node's."""
        return self.ref_id is not None

    def encode(self) -> bytes:
        enc = Encoder()
        self._encode_header(enc)
        if self.is_compressed:
            enc.write_bool(True)
            enc.write_uint(self.ref_id)
            enc.write_uint(self.eps_units)
        else:
            enc.write_bool(False)
            enc.write_uint(self.bits)
            enc.write_packed_codes(self.codes, self.bits)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "LdmTuple":
        dec = Decoder(data)
        node_id, x, y, adjacency = cls._decode_header(dec)
        if dec.read_bool():
            tup = cls(node_id, x, y, adjacency,
                      codes=None, ref_id=dec.read_uint(), eps_units=dec.read_uint())
        else:
            bits = dec.read_uint()
            codes = tuple(dec.read_packed_codes(bits))
            tup = cls(node_id, x, y, adjacency, codes=codes, bits=bits)
        dec.expect_end()
        return tup

    @staticmethod
    def _decode_tail_columns(reader: "_LockStep") -> "dict[str, np.ndarray]":
        """``compressed`` flag; ``ref_id`` / ``eps_units`` on compressed
        rows; ``bits`` / ``code_count`` / ``code_at`` (bitstream offset
        into ``buf``, for :func:`unpack_codes`) on the others; zero
        where absent."""
        compressed = reader.flag()
        columns = {name: np.zeros(len(compressed), dtype=np.int64)
                   for name in ("ref_id", "eps_units", "bits", "code_count", "code_at")}
        rows = np.flatnonzero(compressed)
        columns["ref_id"][rows] = reader.uint(rows)
        columns["eps_units"][rows] = reader.uint(rows)
        rows = np.flatnonzero(~compressed)
        bits = reader.uint(rows)
        if np.count_nonzero((bits < 1) | (bits > 64)):
            raise EncodingError("bits must be in [1, 64]")
        count = reader.uint(rows)
        room = np.maximum(reader.end[rows] - reader.pos[rows], -1)
        if np.count_nonzero(count > 8 * room // bits):
            raise EncodingError("code count exceeds the bytes remaining")
        columns["bits"][rows], columns["code_count"][rows] = bits, count
        columns["code_at"][rows] = reader.pos[rows]
        reader.pos[rows] += (count * bits + 7) // 8
        columns["compressed"], columns["buf"] = compressed, reader.buf
        return columns


@dataclass(frozen=True)
class HypTuple(BaseTuple):
    """Φ(v) with HiTi cell information — Eq. (7)."""

    cell_id: int = 0
    is_border: bool = False

    def encode(self) -> bytes:
        enc = Encoder()
        self._encode_header(enc)
        enc.write_uint(self.cell_id)
        enc.write_bool(self.is_border)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "HypTuple":
        dec = Decoder(data)
        node_id, x, y, adjacency = cls._decode_header(dec)
        tup = cls(node_id, x, y, adjacency,
                  cell_id=dec.read_uint(), is_border=dec.read_bool())
        dec.expect_end()
        return tup

    @staticmethod
    def _decode_tail_columns(reader: "_LockStep") -> "dict[str, np.ndarray]":
        return {"cell_id": reader.uint(), "is_border": reader.flag()}


_ALL_ROWS = slice(None)
_BYTES_OF_F64 = np.arange(8)


class _LockStep:
    """One cursor per payload over the payloads' concatenation.

    Every read is one vectorised step over the selected rows.  A
    truncated payload reads on into its successor and is caught when
    the decoder compares each cursor with its payload's end; counts are
    checked against the bytes present before anything is sized from
    them, which keeps an overrun shorter than the longest payload —
    the zero pad that keeps the last payload's reads in bounds.
    """

    __slots__ = ("buf", "pos", "end")

    def __init__(self, payloads: "Sequence[bytes]") -> None:
        if not payloads:
            raise EncodingError("empty section")
        lengths = np.fromiter(map(len, payloads), np.int64, len(payloads))
        self.end = lengths.cumsum()
        self.pos = self.end - lengths
        pad = bytes(int(lengths.max()) + 64)
        self.buf = np.frombuffer(b"".join(payloads) + pad, dtype=np.uint8)

    def reorder(self, order: np.ndarray) -> None:
        """Row ``i`` becomes the payload that was row ``order[i]``."""
        self.pos, self.end = self.pos[order], self.end[order]

    def uint(self, rows: "np.ndarray | slice" = _ALL_ROWS) -> np.ndarray:
        """LEB128 varints below 2**63 (all an owner can encode), each in
        its one canonical form: a zero final byte after a continuation
        byte is refused."""
        at = self.pos[rows]
        byte = self.buf[at]
        value = (byte & 0x7F).astype(np.int64)
        longer = byte >= 0x80
        size = longer + 1
        more = longer.nonzero()[0]
        for shift in range(7, 70, 7):
            if not more.size:
                break
            if shift == 63:
                raise EncodingError("varint does not fit 63 bits")
            byte = self.buf[at[more] + shift // 7]
            if np.count_nonzero(byte == 0):
                raise EncodingError("overlong varint")
            value[more] |= (byte & 0x7F).astype(np.int64) << shift
            more = more[byte >= 0x80]
            size[more] += 1
        self.pos[rows] = at + size
        return value

    def f64(self, rows: "np.ndarray | slice" = _ALL_ROWS) -> np.ndarray:
        at = self.pos[rows]
        value = self.buf[at[:, None] + _BYTES_OF_F64].view(">f8")[:, 0]
        self.pos[rows] = at + 8
        return value

    def flag(self) -> np.ndarray:
        byte = self.buf[self.pos]
        if np.count_nonzero(byte > 1):
            raise EncodingError("invalid boolean byte")
        self.pos += 1
        return byte.astype(bool)


class TupleColumns:
    """One section's Φ tuples as arrays, rows in ascending node id order.

    ``indptr`` / ``nbr_ids`` / ``weights`` are the adjacency lists in
    CSR form (each row's neighbours in payload order, which is id order
    for an owner's tuple).  ``tail`` holds the method's extra columns.  Coordinates are skipped: no verifier reads
    them.
    """

    __slots__ = ("ids", "indptr", "nbr_ids", "weights", "tail",
                 "_ids", "_indptr", "_nbr_ids", "_weights")

    def __init__(self, ids, indptr, nbr_ids, weights, tail) -> None:
        self.ids, self.indptr = ids, indptr
        self.nbr_ids, self.weights = nbr_ids, weights
        self.tail = tail
        # List forms, for the per-node Python steps (path walk, heap
        # searches): indexing a list beats indexing an array.
        self._ids, self._indptr = ids.tolist(), indptr.tolist()
        self._nbr_ids, self._weights = nbr_ids.tolist(), weights.tolist()

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nbrs(self) -> np.ndarray:
        """Row of every ``nbr_ids`` entry, ``-1`` for an undisclosed one
        (computed per use: each verifier reads it at most once)."""
        return self.rows_of(self.nbr_ids)

    def rows_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Row of each id, ``-1`` where the section has no such node."""
        at = np.minimum(np.searchsorted(self.ids, node_ids), len(self.ids) - 1)
        return np.where(self.ids[at] == node_ids, at, -1)

    def row_of(self, node_id: int) -> int:
        """Scalar :meth:`rows_of` for ids of any size (a reported path
        is untrusted and may name integers no array holds)."""
        at = bisect_left(self._ids, node_id)
        return at if at < len(self._ids) and self._ids[at] == node_id else -1

    def edge_weight(self, row: int, neighbor: int) -> "float | None":
        """Weight Φ(row) lists for *neighbor*, ``None`` when absent.

        O(log degree) bisect over the canonical (id-sorted) adjacency.
        On a payload that violates the order the probe may miss an
        entry, which can only *reject* the response — never accept a
        weight that is not present.
        """
        stop = self._indptr[row + 1]
        at = bisect_left(self._nbr_ids, neighbor, self._indptr[row], stop)
        if at < stop and self._nbr_ids[at] == neighbor:
            return self._weights[at]
        return None

    def search_lists(self, nbrs: "np.ndarray | None" = None,
                     ) -> "tuple[list[int], list[int], list[float]]":
        """``(indptr, nbrs, weights)`` as the lists a heap search walks
        (pass :attr:`nbrs` when the caller reads it too)."""
        if nbrs is None:
            nbrs = self.nbrs
        return self._indptr, nbrs.tolist(), self._weights


def decode_columns(payloads: "Sequence[bytes]",
                   tuple_cls: "type[BaseTuple]" = BaseTuple) -> TupleColumns:
    """Decode a section's Φ payloads in lock-step, straight into arrays.

    Accepts what ``tuple_cls.decode`` accepts payload by payload and
    raises :class:`EncodingError` where it does (truncation, trailing
    bytes, a bad boolean, an adjacency count the payload cannot hold),
    and on duplicate node ids — a provider must never present two
    tuples for one node.
    """
    reader = _LockStep(payloads)
    ids = reader.uint()
    order = ids.argsort(kind="stable")
    ids = ids[order]
    if np.count_nonzero(ids[1:] == ids[:-1]):
        raise EncodingError("duplicate extended tuple for one node id")
    reader.reorder(order)
    reader.pos += 16  # x, y
    count = reader.uint()
    # An adjacency entry is at least 9 bytes (id varint + f64 weight).
    if np.count_nonzero(count > (reader.end - reader.pos) // 9):
        raise EncodingError("adjacency count exceeds the bytes remaining")
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    count.cumsum(out=indptr[1:])
    nbr_ids = np.empty(indptr[-1], dtype=np.int64)
    weights = np.empty(indptr[-1], dtype=np.float64)
    for slot in range(int(count.max())):
        rows = (count > slot).nonzero()[0]
        slots = indptr[rows] + slot
        nbr_ids[slots] = reader.uint(rows)
        weights[slots] = reader.f64(rows)
    tail = tuple_cls._decode_tail_columns(reader)
    if np.count_nonzero(reader.pos != reader.end):
        raise EncodingError("truncated payload or trailing bytes")
    return TupleColumns(ids, indptr, nbr_ids, weights, tail)


def decode_distance_columns(
    payloads: "Sequence[bytes]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(a, b, distance)`` columns of a section of distance tuples."""
    reader = _LockStep(payloads)
    columns = reader.uint(), reader.uint(), reader.f64()
    if np.count_nonzero(reader.pos != reader.end):
        raise EncodingError("truncated payload or trailing bytes")
    return columns


def unpack_codes(tail: "dict[str, np.ndarray]", rows: np.ndarray,
                 bits: int, count: int) -> np.ndarray:
    """``(len(rows), count)`` landmark codes of the uncompressed *rows*
    of an LDM *tail*, all of which carry *count* codes of *bits* bits —
    every row's bitstream unpacked in one pass."""
    at = tail["code_at"][rows, None] + np.arange((count * bits + 7) // 8)
    stream = np.unpackbits(tail["buf"][at], axis=1)[:, :count * bits]
    place = np.left_shift(1, np.arange(bits - 1, -1, -1), dtype=np.int64)
    return stream.reshape(len(rows), count, bits) @ place


@dataclass(frozen=True, order=True)
class DistanceTuple:
    """Materialized distance entry ``<a, b, dist(a, b)>``.

    The composite key ``(a, b)`` orders the leaves of distance Merkle
    B-trees (FULL stores all node pairs; HYP stores border-node pairs
    with ``a < b`` since the graph is undirected).
    """

    a: int
    b: int
    distance: float = field(compare=False)

    @property
    def key(self) -> tuple[int, int]:
        """The B-tree composite key."""
        return (self.a, self.b)

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        return (
            Encoder()
            .write_uint(self.a)
            .write_uint(self.b)
            .write_f64(self.distance)
            .getvalue()
        )

    @classmethod
    def decode(cls, data: bytes) -> "DistanceTuple":
        """Inverse of :meth:`encode`."""
        dec = Decoder(data)
        tup = cls(dec.read_uint(), dec.read_uint(), dec.read_f64())
        dec.expect_end()
        return tup


def triangle_leaf_digests(ids: "list[int]", matrix, hash_fn) -> bytes:
    """Contiguous Merkle leaf digests over the triangle payloads.

    Equivalent to hashing each :func:`iter_triangle_payloads` payload
    with :func:`repro.merkle.tree.leaf_digest` — feed the result to
    ``MerkleTree(leaf_digests=...)``.  This is the owner's hottest
    construction loop (FULL hashes |V|²/2 of these), so the tagged
    payloads are assembled with vectorized byte writes: ids are sorted,
    hence their varint lengths are non-decreasing, and within one
    (row, varint-length) segment every payload has the same width —
    one NumPy buffer holds the whole segment and each leaf costs a
    single slice and hash call, no per-leaf concatenation.
    """
    from repro.crypto.hashing import get_hash
    from repro.encoding import encode_uvarint
    from repro.merkle.tree import _LEAF_TAG

    factory = get_hash(hash_fn).factory
    prefixes = [encode_uvarint(node_id) for node_id in ids]
    n = len(ids)
    ids_arr = np.asarray(ids, dtype=np.int64)
    if np.any(np.diff(ids_arr) <= 0):
        # The segment search below would silently hash the wrong bytes.
        raise GraphError("triangle_leaf_digests needs strictly ascending ids")
    #: varint length per id — non-decreasing because ids are ascending.
    plens = np.array([len(p) for p in prefixes], dtype=np.int64)
    rows: list[bytes] = []
    for i in range(n):
        if i + 1 >= n:
            break
        tagged = np.frombuffer(_LEAF_TAG + prefixes[i], dtype=np.uint8)
        lt = len(tagged)
        packed = np.ascontiguousarray(matrix[i, i + 1 :], dtype=">f8")
        weight_bytes = packed.view(np.uint8).reshape(n - i - 1, 8)
        start = i + 1
        while start < n:
            length = int(plens[start])
            end = int(np.searchsorted(plens, length, side="right"))
            seg_ids = ids_arr[start:end]
            m = end - start
            width = lt + length + 8
            arr = np.empty((m, width), dtype=np.uint8)
            arr[:, :lt] = tagged
            for p in range(length):  # LEB128: low 7-bit group first
                group = (seg_ids >> (7 * p)) & 0x7F
                arr[:, lt + p] = group | 0x80 if p < length - 1 else group
            arr[:, lt + length :] = weight_bytes[start - i - 1 : end - i - 1]
            buf = arr.tobytes()
            rows.append(b"".join([
                factory(chunk).digest()
                for (chunk,) in struct.iter_unpack(f"{width}s", buf)
            ]))
            start = end
    return b"".join(rows)


def iter_triangle_payloads(ids: "list[int]", matrix):
    """Yield ``DistanceTuple(ids[i], ids[j], matrix[i, j]).encode()`` for
    the upper triangle (``i < j``), in triangle (leaf) order.

    Batch form of the per-tuple encoder for the FULL and HYP distance
    Merkle trees, which hash millions of these leaves: the per-id
    varint prefixes are computed once and each row's distances are
    packed to big-endian float64 in one NumPy call, so the per-leaf
    Python work is a single bytes concatenation.  Output is
    byte-identical to calling :meth:`DistanceTuple.encode` per pair.
    """
    from repro.encoding import encode_uvarint

    prefixes = [encode_uvarint(node_id) for node_id in ids]
    n = len(ids)
    for i in range(n):
        pa = prefixes[i]
        packed = np.ascontiguousarray(matrix[i, i + 1 :], dtype=">f8").tobytes()
        base = -8 * (i + 1)
        for j in range(i + 1, n):
            k = base + 8 * j
            yield pa + prefixes[j] + packed[k : k + 8]


@dataclass(frozen=True)
class CellDirectoryTuple:
    """HYP cell directory entry: ``<cell id, sorted member node ids>``.

    This is the soundness-completing ADS described in docs/architecture.md: it
    lets a client confirm that the provider disclosed *every* node of
    the source/target cells in the coarse proof.
    """

    cell_id: int
    member_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.member_ids)) != tuple(self.member_ids):
            raise EncodingError("cell directory members must be sorted")

    def encode(self) -> bytes:
        """Canonical byte encoding."""
        enc = Encoder().write_uint(self.cell_id)
        enc.write_uint_seq(self.member_ids)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "CellDirectoryTuple":
        """Inverse of :meth:`encode`."""
        dec = Decoder(data)
        tup = cls(dec.read_uint(), tuple(dec.read_uint_seq()))
        dec.expect_end()
        return tup
