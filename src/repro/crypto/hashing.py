"""One-way hash function wrapper.

The paper uses SHA-1 (the standard choice in 2010); we default to it so
that digest sizes — and therefore proof sizes in KBytes — are directly
comparable with the paper's measurements.  SHA-256 is available for
modern deployments; everything downstream only depends on
:attr:`HashFunction.digest_size`.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.errors import CryptoError

_SUPPORTED = {
    "sha1": 20,
    "sha256": 32,
    "sha512": 64,
}


class HashFunction:
    """A named secure hash with convenience helpers.

    Instances are cheap and stateless; ``HashFunction("sha1")`` wraps
    :func:`hashlib.sha1`.

    >>> h = HashFunction("sha1")
    >>> h.digest(b"abc").hex()[:8]
    'a9993e36'
    """

    __slots__ = ("name", "digest_size", "factory")

    def __init__(self, name: str = "sha1") -> None:
        if name not in _SUPPORTED:
            raise CryptoError(
                f"unsupported hash {name!r}; choose from {sorted(_SUPPORTED)}"
            )
        self.name = name
        self.digest_size = _SUPPORTED[name]
        #: The raw digest constructor (``hashlib.sha1``, …).  Hot loops
        #: hashing millions of items bind this directly — calling it
        #: avoids the Python-level indirection of :meth:`new`.
        self.factory: Callable = getattr(hashlib, name)

    def digest(self, *messages: bytes) -> bytes:
        """Hash the concatenation of *messages*.

        Concatenation implements the paper's ``H(a ◦ b ◦ ...)`` operator.
        """
        hasher = self.factory()
        for message in messages:
            hasher.update(message)
        return hasher.digest()

    def digest_int(self, *messages: bytes) -> int:
        """Hash and interpret the digest as a big-endian integer."""
        return int.from_bytes(self.digest(*messages), "big")

    def new(self, data: bytes = b""):
        """Return a raw hashlib object for incremental hashing.

        *data*, when given, is hashed immediately (one C call instead
        of a construct-then-update pair — the Merkle hot loops rely on
        this).
        """
        return self.factory(data)

    def __repr__(self) -> str:
        return f"HashFunction({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashFunction) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("HashFunction", self.name))


def get_hash(name_or_fn: "str | HashFunction") -> HashFunction:
    """Coerce a name or an existing :class:`HashFunction` to an instance."""
    if isinstance(name_or_fn, HashFunction):
        return name_or_fn
    return HashFunction(name_or_fn)
