"""Proof containers: signed descriptor, tree sections, query response.

A :class:`QueryResponse` is everything the service provider sends back
for one query (Algorithm 1's outputs): the result path, the shortest
path proof ΓS (tuple payloads per authenticated structure), and the
integrity proof ΓT (Merkle hash entries per structure), together with
the owner's *signed descriptor*.

The descriptor binds, under one owner signature, everything a client
must trust a priori: method name, hash function, the method parameters
(e.g. λ for LDM, the grid geometry for HYP), and for every ADS its
name, leaf count, fanout and Merkle root.  The provider cannot alter
any of these without breaking the signature.

Size accounting follows the paper's split:

* ``S-prf`` — the shortest path proof: tuple payloads and their leaf
  positions, plus the reported path itself;
* ``T-prf`` — the integrity proof: Merkle hash entries, the descriptor
  and the signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding import Decoder, Encoder
from repro.errors import EncodingError
from repro.merkle.proof import MerkleProofEntry, decode_proof_entries, encode_proof_entries

#: Canonical ADS names used across methods.
NETWORK_TREE = "network"
DISTANCE_TREE = "distance"
DIRECTORY_TREE = "directory"


@dataclass(frozen=True)
class TreeConfig:
    """Signed per-ADS metadata: shape and root digest."""

    name: str
    num_leaves: int
    fanout: int
    root: bytes


@dataclass(frozen=True)
class SignedDescriptor:
    """Owner-signed binding of method, parameters, version and ADS roots.

    ``version`` is the graph mutation counter the descriptor was signed
    at.  It is part of the signed message, so a provider replaying a
    response from before an update cannot hide that the proof speaks
    about a superseded network: a client that has learned the owner's
    current version (out of band, like the public key) rejects any
    older descriptor (see ``min_version`` in
    :func:`repro.core.checks.verify_descriptor`).
    """

    method: str
    hash_name: str
    params: bytes
    trees: tuple[TreeConfig, ...]
    version: int = 0
    signature: bytes = b""

    def message(self) -> bytes:
        """The byte string the owner signs (everything but the signature)."""
        enc = Encoder()
        enc.write_str(self.method).write_str(self.hash_name)
        enc.write_uint(self.version)
        enc.write_bytes(self.params)
        enc.write_uint(len(self.trees))
        for tree in self.trees:
            enc.write_str(tree.name)
            enc.write_uint(tree.num_leaves)
            enc.write_uint(tree.fanout)
            enc.write_bytes(tree.root)
        return enc.getvalue()

    def with_signature(self, signature: bytes) -> "SignedDescriptor":
        """A copy carrying the owner's signature."""
        return SignedDescriptor(self.method, self.hash_name, self.params,
                                self.trees, self.version, signature)

    def tree(self, name: str) -> TreeConfig:
        """Look up an ADS by name."""
        for tree in self.trees:
            if tree.name == name:
                return tree
        raise EncodingError(f"descriptor has no tree {name!r}")

    def has_tree(self, name: str) -> bool:
        """Whether the descriptor includes an ADS called *name*."""
        return any(tree.name == name for tree in self.trees)

    def encode(self) -> bytes:
        """Full encoding including the signature."""
        enc = Encoder()
        enc.write_bytes(self.message())
        enc.write_bytes(self.signature)
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "SignedDescriptor":
        """Inverse of :meth:`encode`.

        Strict: raises :class:`~repro.errors.EncodingError` — and only
        that — on truncated, oversized or garbage input.  Descriptors
        arrive over the wire from an untrusted provider, so the decoder
        must never surface a raw ``IndexError``/``struct.error`` (and
        must reject impossible counts before trusting them).
        """
        outer = Decoder(bytes(data))
        message = outer.read_bytes()
        signature = outer.read_bytes()
        outer.expect_end()
        dec = Decoder(message)
        method = dec.read_str()
        hash_name = dec.read_str()
        version = dec.read_uint()
        params = dec.read_bytes()
        trees = tuple(
            TreeConfig(dec.read_str(), dec.read_uint(), dec.read_uint(), dec.read_bytes())
            # A tree config occupies at least four bytes (name length,
            # leaf count, fanout, root length).
            for _ in range(dec.read_count(4))
        )
        dec.expect_end()
        return cls(method, hash_name, params, trees, version, signature)


@dataclass
class TreeSection:
    """ΓS + ΓT material for one authenticated structure.

    ``positions[i]`` is the leaf index of ``payloads[i]``; ``entries``
    are the Merkle cover digests.
    """

    tree: str
    positions: list[int]
    payloads: list[bytes]
    entries: list[MerkleProofEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.payloads):
            raise EncodingError(
                f"section {self.tree!r}: {len(self.positions)} positions vs "
                f"{len(self.payloads)} payloads"
            )
        if len(set(self.positions)) != len(self.positions):
            raise EncodingError(f"section {self.tree!r}: duplicate leaf positions")

    def leaf_map(self) -> dict[int, bytes]:
        """``{leaf position: payload}`` for root reconstruction."""
        return dict(zip(self.positions, self.payloads))

    # -- size accounting ------------------------------------------------
    def s_prf_bytes(self) -> int:
        """Bytes attributable to the shortest path proof."""
        enc = Encoder()
        enc.write_uint_seq(self.positions)
        for payload in self.payloads:
            enc.write_bytes(payload)
        return len(enc)

    def t_prf_bytes(self) -> int:
        """Bytes attributable to the integrity proof."""
        enc = Encoder()
        encode_proof_entries(self.entries, enc)
        return len(enc)


@dataclass
class ProofSizes:
    """Communication overhead breakdown (paper Fig. 8a)."""

    s_prf_bytes: int
    t_prf_bytes: int
    path_bytes: int
    s_items: int
    t_items: int

    @property
    def total_bytes(self) -> int:
        """Total communication overhead in bytes."""
        return self.s_prf_bytes + self.t_prf_bytes + self.path_bytes

    @property
    def total_kbytes(self) -> float:
        """Total communication overhead in KBytes."""
        return self.total_bytes / 1024.0


@dataclass
class QueryResponse:
    """The provider's complete answer to a shortest path query."""

    method: str
    source: int
    target: int
    path_nodes: tuple[int, ...]
    path_cost: float
    sections: dict[str, TreeSection]
    descriptor: SignedDescriptor

    def section(self, name: str) -> TreeSection:
        """Fetch a section by ADS name."""
        try:
            return self.sections[name]
        except KeyError:
            raise EncodingError(f"response has no section {name!r}") from None

    # -- wire format ----------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the full response (also the size ground truth)."""
        enc = Encoder()
        enc.write_str(self.method)
        enc.write_uint(self.source).write_uint(self.target)
        enc.write_uint_seq(self.path_nodes)
        enc.write_f64(self.path_cost)
        enc.write_uint(len(self.sections))
        for name in sorted(self.sections):
            section = self.sections[name]
            enc.write_str(name)
            enc.write_uint_seq(section.positions)
            enc.write_bytes_seq(section.payloads)
            encode_proof_entries(section.entries, enc)
        enc.write_bytes(self.descriptor.encode())
        return enc.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "QueryResponse":
        """Inverse of :meth:`encode`.

        This is the client's entire attack surface for response bytes,
        so decoding is strict: every malformation — truncation, counts
        exceeding the bytes present, duplicate sections or positions,
        trailing garbage — raises a typed
        :class:`~repro.errors.EncodingError`; nothing else escapes.
        """
        dec = Decoder(bytes(data))
        method = dec.read_str()
        source = dec.read_uint()
        target = dec.read_uint()
        path_nodes = tuple(dec.read_uint_seq())
        path_cost = dec.read_f64()
        sections: dict[str, TreeSection] = {}
        # A section occupies at least four bytes (name length, positions
        # count, payloads count, entries count).
        for _ in range(dec.read_count(4)):
            name = dec.read_str()
            positions = dec.read_uint_seq()
            payloads = dec.read_bytes_seq()
            entries = decode_proof_entries(dec)
            if name in sections:
                raise EncodingError(f"duplicate section {name!r}")
            sections[name] = TreeSection(name, positions, payloads, entries)
        descriptor = SignedDescriptor.decode(dec.read_bytes())
        dec.expect_end()
        return cls(method, source, target, path_nodes, path_cost, sections, descriptor)

    # -- accounting -----------------------------------------------------
    def sizes(self) -> ProofSizes:
        """Communication overhead breakdown (S-prf / T-prf / path)."""
        s_bytes = sum(s.s_prf_bytes() for s in self.sections.values())
        t_bytes = sum(s.t_prf_bytes() for s in self.sections.values())
        t_bytes += len(self.descriptor.encode())
        path_enc = Encoder()
        path_enc.write_uint_seq(self.path_nodes)
        path_enc.write_f64(self.path_cost)
        return ProofSizes(
            s_prf_bytes=s_bytes,
            t_prf_bytes=t_bytes,
            path_bytes=len(path_enc),
            s_items=sum(len(s.payloads) for s in self.sections.values()),
            t_items=sum(len(s.entries) for s in self.sections.values()),
        )
