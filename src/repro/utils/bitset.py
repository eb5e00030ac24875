"""Packed bitsets: boolean arrays stored as ``np.uint64`` words.

The cascade layer keeps many large boolean arrays alive at once — above all
live-edge snapshot masks (one bit per edge, dozens of snapshots per pool).
Stored as numpy ``bool`` arrays these cost a byte per bit; packing them
into ``uint64`` words cuts that memory by 8x, which is what lets
million-node graphs keep whole snapshot pools resident.

Conventions
-----------
* Bit *i* of a packed array lives in word ``i >> 6`` at bit position
  ``i & 63`` (little-endian bit order, the ``np.packbits(bitorder=
  "little")`` layout).  In the words' ``uint8`` view that is bit ``i & 7``
  of byte ``i >> 3``, which is where :func:`lookup_bits` reads it: one
  byte gather and ``uint8`` shifts instead of ``uint64`` ones.
* Packed arrays are detected **by dtype**: ``uint64`` means packed words,
  anything else is treated as a boolean-style mask.  The kernels accept
  either representation at every mask argument via :func:`lookup_bits`.
* Padding bits past ``num_bits`` are always zero, so equality comparisons
  (and ``np.bitwise_count(words).sum()``) need no trailing-word masking.

Every operation here is exact — packing then unpacking round-trips bit for
bit — so the packed and boolean code paths of the kernels are bit-identical
(covered by ``tests/test_utils_bitset.py`` and the kernel equivalence
suite).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "count_bits",
    "is_packed",
    "lookup_bits",
    "num_words",
    "pack_bits",
    "packed_bytes",
    "packed_zeros",
    "set_bits",
    "unpack_bits",
]

#: Bits per storage word.
WORD_BITS = 64

_ONE = np.uint64(1)
_LOW6 = np.uint64(63)


def num_words(num_bits: int) -> int:
    """Number of ``uint64`` words needed to hold *num_bits* bits."""
    if num_bits < 0:
        raise ValueError(f"num_bits must be non-negative, got {num_bits}")
    return (int(num_bits) + WORD_BITS - 1) // WORD_BITS


def is_packed(mask: np.ndarray) -> bool:
    """Whether *mask* is a packed word array (detected by ``uint64`` dtype)."""
    return mask.dtype == np.uint64


def count_bits(mask: np.ndarray) -> int:
    """Number of set bits of *mask*, packed or boolean-style."""
    if not is_packed(mask):
        return int(np.count_nonzero(mask))
    popcount = getattr(np, "bitwise_count", None)  # numpy >= 2.0
    if popcount is not None:
        return int(popcount(mask).sum())
    return int(np.count_nonzero(np.unpackbits(mask.view(np.uint8))))


def packed_zeros(num_bits: int) -> np.ndarray:
    """An all-zeros packed bitset holding *num_bits* bits."""
    return np.zeros(num_words(num_bits), dtype=np.uint64)


def pack_bits(mask: np.ndarray) -> np.ndarray:
    """Pack a 1-D boolean-style array into little-endian ``uint64`` words.

    Padding bits beyond ``mask.size`` are zero.  Packing an already-packed
    array is an error (it would silently re-pack the words themselves).
    """
    arr = np.asarray(mask)
    if is_packed(arr):
        raise ValueError("mask is already packed (uint64 words)")
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D mask, got shape {arr.shape}")
    packed_bytes_ = np.packbits(arr.astype(bool), bitorder="little")
    pad = (-packed_bytes_.size) % 8
    if pad:
        packed_bytes_ = np.concatenate(
            [packed_bytes_, np.zeros(pad, dtype=np.uint8)]
        )
    return packed_bytes_.view(np.uint64)


def unpack_bits(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Unpack ``uint64`` words back into a boolean array of *num_bits* bits."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if num_bits > words.size * WORD_BITS:
        raise ValueError(
            f"{num_bits} bits do not fit in {words.size} words"
        )
    return (
        np.unpackbits(words.view(np.uint8), count=int(num_bits), bitorder="little")
        .astype(bool)
    )


def lookup_bits(mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``mask[idx]`` for either representation; always returns booleans.

    This is the single mask-indexing primitive of the cascade kernels:
    boolean-style masks use plain fancy indexing, packed masks extract bit
    ``idx & 7`` of byte ``idx >> 3`` of the words' ``uint8`` view (the
    module's layout, read byte-wise).
    """
    if not is_packed(mask):
        return mask[idx]
    idx = np.asarray(idx, dtype=np.int64)
    bits = np.ascontiguousarray(mask).view(np.uint8)[idx >> 3]
    bits >>= (idx & 7).astype(np.uint8)
    bits &= 1
    return bits.view(bool)


def set_bits(words: np.ndarray, idx: np.ndarray) -> None:
    """Set bit *idx* (vectorized, duplicates allowed) in packed *words*."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return
    values = _ONE << (idx & 63).astype(np.uint64)
    np.bitwise_or.at(words, idx >> 6, values)


def packed_bytes(masks: object) -> int:
    """Total ``nbytes`` of an ndarray or an iterable of ndarrays.

    Convenience for the pool metrics: reports how much memory a stored
    snapshot sample actually occupies, packed or not.
    """
    if isinstance(masks, np.ndarray):
        return int(masks.nbytes)
    return int(sum(int(np.asarray(m).nbytes) for m in masks))
