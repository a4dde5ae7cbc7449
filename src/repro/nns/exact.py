"""Exact nearest-neighbour search (the FAISS IndexFlat substitute).

The paper's baseline filtering stage uses "a FAISS-based distance search"
(Sec. IV-B) over the item embedding table.  FAISS's flat indexes compute
exact brute-force distances; this module reimplements that semantics in
NumPy for the two metrics the paper uses: cosine distance and inner
product.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "cosine_similarities",
    "cosine_topk",
    "inner_product_topk",
    "topk_indices",
    "topk_indices_batch",
]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, sorted descending by score.

    Uses argpartition for O(n) selection then sorts only the k winners --
    the same strategy a GPU top-k kernel uses.
    """
    flat = np.asarray(scores, dtype=np.float64).reshape(-1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, flat.shape[0])
    partitioned = np.argpartition(-flat, k - 1)[:k]
    return partitioned[np.argsort(-flat[partitioned], kind="stable")]


def topk_indices_batch(
    scores: np.ndarray,
    k: int,
    valid_counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multi-query top-k: one stable argsort over a (Q, N) score matrix.

    Returns a (Q, min(k, N)) index matrix whose row ``q`` equals
    ``np.argsort(-scores[q], kind="stable")[:k]`` -- descending score,
    ties broken by ascending index -- which is the deterministic order
    every serving engine's final top-k uses.  The serving caller's rows
    are at most ``num_candidates`` wide, where one full row sort is
    cheaper than a partition plus tie repair.

    ``valid_counts`` marks ragged rows: entries at column >= count are
    padding and never selected (rows with fewer than ``k`` valid entries
    return their valid indices first; callers slice by count).
    """
    matrix = np.asarray(scores, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"scores must be (Q, N), got {matrix.shape}")
    num_queries, width = matrix.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    negated = -matrix
    if valid_counts is not None:
        counts = np.asarray(valid_counts, dtype=np.int64)
        if counts.shape != (num_queries,):
            raise ValueError("valid_counts must have one entry per row")
        # Padding sinks below every finite score and keeps row order.
        negated[np.arange(width) >= counts[:, None]] = np.inf
    return np.argsort(negated, axis=1, kind="stable")[:, :k]


def cosine_similarities(query: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Cosine similarity from one query vector to each item row."""
    vector = np.asarray(query, dtype=np.float64).reshape(-1)
    matrix = np.asarray(items, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != vector.shape[0]:
        raise ValueError(f"items must be (n, {vector.shape[0]}), got {matrix.shape}")
    query_norm = np.linalg.norm(vector)
    item_norms = np.linalg.norm(matrix, axis=1)
    denominator = item_norms * query_norm
    # Zero-norm rows get similarity 0 (they can never be nearest).
    with np.errstate(divide="ignore", invalid="ignore"):
        similarities = np.where(denominator > 0.0, matrix @ vector / denominator, 0.0)
    return similarities


def cosine_topk(query: np.ndarray, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k items by cosine similarity: (indices, similarities)."""
    similarities = cosine_similarities(query, items)
    winners = topk_indices(similarities, k)
    return winners, similarities[winners]


def inner_product_topk(query: np.ndarray, items: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k items by inner product: (indices, scores)."""
    vector = np.asarray(query, dtype=np.float64).reshape(-1)
    matrix = np.asarray(items, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != vector.shape[0]:
        raise ValueError(f"items must be (n, {vector.shape[0]}), got {matrix.shape}")
    scores = matrix @ vector
    winners = topk_indices(scores, k)
    return winners, scores[winners]
