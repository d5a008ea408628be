"""Quantization of landmark distance vectors (paper Eq. 5, Lemma 3).

Each landmark distance is replaced by a ``b``-bit code::

    λ = D_max / (2^b - 1)
    code(d) = round(d / λ)            (an integer in [0, 2^b - 1])
    dist_b(d) = λ * code(d)

Lemma 3: the *loose* lower bound computed from codes,

    max(0, λ * (max_i |code_i(u) - code_i(v)| - 1)),

never exceeds the exact Theorem-1 bound, so A* correctness is
preserved while each vector shrinks from ``8c`` bytes to ``ceil(bc/8)``
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True)
class QuantizationSpec:
    """Parameters shared by owner, provider and client.

    ``lam`` is the paper's λ = ``d_max / (2^b - 1)``.  The spec is part
    of the signed method descriptor, so a provider cannot lie about λ.
    """

    bits: int
    d_max: float
    lam: float

    @classmethod
    def for_vectors(cls, vectors: np.ndarray, bits: int) -> "QuantizationSpec":
        """Derive the spec from the exact distance vectors."""
        if bits < 1 or bits > 32:
            raise GraphError(f"quantization bits must be in [1, 32], got {bits}")
        d_max = float(vectors.max()) if vectors.size else 0.0
        if d_max <= 0.0:
            d_max = 1.0  # degenerate single-node graph; any λ works
        lam = d_max / float((1 << bits) - 1)
        return cls(bits=bits, d_max=d_max, lam=lam)

    def encode_value(self, distance: float) -> int:
        """Quantize one distance to its code (round half up, as in Fig. 6a)."""
        return int(distance / self.lam + 0.5)

    def decode_code(self, code: int) -> float:
        """``dist_b`` for a code (Eq. 5)."""
        return self.lam * code


def quantize_vectors(
    vectors: np.ndarray,
    bits: int,
    *,
    spec: "QuantizationSpec | None" = None,
) -> "tuple[np.ndarray, QuantizationSpec]":
    """Quantize a ``(c, n)`` distance matrix to integer codes.

    Returns ``(codes, spec)`` where ``codes`` is an ``(c, n)`` int32
    array of values in ``[0, 2^bits - 1]``.  Passing an explicit *spec*
    pins the grid (the live-update path does: λ is part of the signed
    parameters, so it must not drift with every re-weight); distances
    beyond the pinned ``d_max`` saturate at the top code, which only
    *under*-estimates them — the Lemma 3 bound stays admissible, merely
    looser, until the owner re-publishes with a fresh grid.
    """
    if spec is None:
        spec = QuantizationSpec.for_vectors(vectors, bits)
    elif spec.bits != bits:
        raise GraphError(f"spec is {spec.bits}-bit, requested {bits}")
    return quantize_values(vectors, spec), spec


def quantize_values(values: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Codes of any array of distances on *spec*'s grid (int32).

    Rounds half *up* (the paper's Fig. 6a quantizes 9/2 to 5, not to the
    even 4 that banker's rounding would give).  |d - dist_b| <= lam/2
    holds either way, which is all Lemma 3 needs.  The clip is a no-op
    when the spec was derived from these values.
    """
    codes = np.floor(values / spec.lam + 0.5).astype(np.int32)
    np.clip(codes, 0, (1 << spec.bits) - 1, out=codes)
    return codes


def loose_lower_bound_units(codes_u: np.ndarray, codes_v: np.ndarray) -> int:
    """``max_i |code_i(u) - code_i(v)|`` in λ units (the paper's Δ/λ)."""
    return int(np.abs(codes_u - codes_v).max())


def loose_lower_bound(codes_u: np.ndarray, codes_v: np.ndarray, lam: float) -> float:
    """Lemma 3's ``dist^loose_LB`` from two code vectors."""
    return max(0.0, lam * (loose_lower_bound_units(codes_u, codes_v) - 1))
