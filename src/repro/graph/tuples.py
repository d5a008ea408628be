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
from dataclasses import dataclass, field
from typing import Mapping

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
    import numpy as np

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
    import numpy as np

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
