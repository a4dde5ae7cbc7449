"""Hamming-distance utilities over bit matrices.

These are the software counterparts of the TCAM match operation: packed
XOR + popcount for speed on the GPU-baseline side, and plain bit-matrix
distances for cross-checking the CMA search results.

The multi-query serving kernels work on ``uint64`` words
(:func:`pack_bits_u64`): a (Q, W) query block XORs against an (N, W)
item block word plane by word plane, (W, Q, N), and the planes'
popcounts add up to one (Q, N) scan (:func:`hamming_matrix_packed`) --
the software shape of the TCAM array matching all rows at once.  Exact
integer counts, so they agree bitwise with the byte-table references.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bits",
    "pack_bits_u64",
    "pack_signature_words",
    "unpack_bits",
    "hamming_distance",
    "pairwise_hamming",
    "hamming_matrix",
    "hamming_matrix_packed",
]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, b) 0/1 matrix into (n, ceil(b/8)) uint8 rows."""
    matrix = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    if not np.isin(matrix, (0, 1)).all():
        raise ValueError("bit matrix must contain only 0/1")
    return np.packbits(matrix, axis=1)


def unpack_bits(packed: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`, trimming pad bits to *num_bits*."""
    matrix = np.atleast_2d(np.asarray(packed, dtype=np.uint8))
    unpacked = np.unpackbits(matrix, axis=1)
    if num_bits > unpacked.shape[1]:
        raise ValueError(f"cannot recover {num_bits} bits from {unpacked.shape[1]}")
    return unpacked[:, :num_bits]


def pack_bits_u64(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, b) 0/1 matrix into (n, ceil(b/64)) uint64 words.

    The word layout is byte-compatible with :func:`pack_bits` (big-endian
    bit order within each byte) widened to 64-bit lanes, so XOR+popcount
    over these words counts exactly the same mismatching bits.
    """
    return _widen_to_u64(pack_bits(bits))


def pack_signature_words(signatures: np.ndarray) -> np.ndarray:
    """:func:`pack_bits_u64` for matrices that are 0/1 by construction.

    Skips the 0/1 scan: hashers emit ``(projections >= 0)`` comparisons,
    so a serving hot path that packs its own query signatures on every
    call need not re-validate them.  Input from anywhere else belongs in
    :func:`pack_bits_u64`, which rejects any other value.
    """
    return _widen_to_u64(
        np.packbits(np.atleast_2d(np.asarray(signatures, dtype=np.uint8)), axis=1)
    )


def _widen_to_u64(packed8: np.ndarray) -> np.ndarray:
    """Zero-pad packed byte rows to whole 64-bit words and view them so."""
    num_rows, num_bytes = packed8.shape
    pad = (-num_bytes) % 8
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros((num_rows, pad), dtype=np.uint8)], axis=1
        )
    return packed8.view(np.uint64)


_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

#: Cap on the uint64 words a single XOR block may hold (~32 MiB) before
#: :func:`hamming_matrix_packed` falls back to query-chunked scans.
_PACKED_CHUNK_WORDS = 1 << 22


def _popcount_planes(words: np.ndarray, out: np.ndarray) -> None:
    """Per-element popcounts of a (W, Q, N) block summed over W into *out*."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        np.add.reduce(np.bitwise_count(words), axis=0, dtype=np.int64, out=out)
        return
    per_byte = _POPCOUNT_TABLE[np.ascontiguousarray(words).view(np.uint8)]
    out[...] = per_byte.reshape(words.shape + (8,)).sum(axis=(0, 3), dtype=np.int64)


def hamming_matrix_packed(
    query_words: np.ndarray, item_words: np.ndarray
) -> np.ndarray:
    """(Q, N) Hamming distances between two :func:`pack_bits_u64` blocks.

    One vectorised XOR + popcount scan per query chunk -- the multi-query
    kernel the serving hot path runs instead of per-row
    :func:`pairwise_hamming` calls.  Distances are exact integers for any
    layout; a Fortran-ordered ``item_words`` scans fastest.
    """
    queries = np.atleast_2d(np.asarray(query_words, dtype=np.uint64))
    items = np.atleast_2d(np.asarray(item_words, dtype=np.uint64))
    if queries.shape[1] != items.shape[1]:
        raise ValueError(
            f"word widths differ: {queries.shape[1]} vs {items.shape[1]}"
        )
    num_queries, words = queries.shape
    num_items = items.shape[0]
    out = np.empty((num_queries, num_items), dtype=np.int64)
    query_planes, item_planes = queries.T[:, :, None], items.T[:, None, :]
    per_row = max(1, num_items * words)
    chunk = max(1, _PACKED_CHUNK_WORDS // per_row)
    for start in range(0, num_queries, chunk):
        stop = min(start + chunk, num_queries)
        _popcount_planes(query_planes[:, start:stop] ^ item_planes, out[start:stop])
    return out


def hamming_distance(bits_a: np.ndarray, bits_b: np.ndarray) -> int:
    """Hamming distance between two equal-length 0/1 vectors."""
    first = np.asarray(bits_a, dtype=np.uint8)
    second = np.asarray(bits_b, dtype=np.uint8)
    if first.shape != second.shape:
        raise ValueError(f"shape mismatch: {first.shape} vs {second.shape}")
    return int((first != second).sum())


def pairwise_hamming(query_bits: np.ndarray, item_bits: np.ndarray) -> np.ndarray:
    """Distances from one query to each row of a bit matrix (XOR+popcount)."""
    query_packed = pack_bits(np.asarray(query_bits).reshape(1, -1))
    items_packed = pack_bits(item_bits)
    xored = np.bitwise_xor(items_packed, query_packed)
    return _POPCOUNT_TABLE[xored].sum(axis=1).astype(np.int64)


def hamming_matrix(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """Full (n, m) distance matrix between two bit matrices."""
    first = np.atleast_2d(np.asarray(bits_a, dtype=np.uint8))
    second = np.atleast_2d(np.asarray(bits_b, dtype=np.uint8))
    if first.shape[1] != second.shape[1]:
        raise ValueError("bit widths differ")
    # (n, 1, b) != (1, m, b) -> (n, m, b); fine for the table sizes used here.
    return (first[:, None, :] != second[None, :, :]).sum(axis=2).astype(np.int64)
