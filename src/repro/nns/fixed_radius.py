"""Fixed-radius near-neighbour selection policies.

iMARS replaces the filtering stage's top-k candidate selection with "a
fixed-radius near neighbor search instead of top-k search" (Sec. III-B)
because the TCAM threshold match returns *all* rows within a Hamming radius
in one array operation.  The radius plays the role the candidate count k
plays in the baseline; these helpers calibrate a population-level radius so
that the *average* candidate count matches a target, and clamp per-query
candidate sets for the ranking stage.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "calibrate_population_radius",
    "fixed_radius_candidates",
    "fixed_radius_candidates_batch",
    "cap_candidates",
]


def calibrate_population_radius(
    distance_rows: Sequence[np.ndarray],
    target_mean_candidates: float,
    max_radius: int,
) -> int:
    """Radius whose mean candidate count best matches the target.

    Parameters
    ----------
    distance_rows:
        One Hamming-distance vector per calibration query.
    target_mean_candidates:
        Desired average candidate-set size (the paper's O(100)).
    max_radius:
        Upper bound (the signature length).
    """
    if target_mean_candidates <= 0.0:
        raise ValueError("target candidate count must be positive")
    if max_radius < 0:
        raise ValueError("max radius must be non-negative")
    rows = [np.asarray(row, dtype=np.int64) for row in distance_rows]
    if not rows:
        raise ValueError("need at least one calibration query")
    # One histogram over the stacked distances replaces the per-radius
    # per-row scan: mean_count(r) is a cumulative count of distances <= r.
    # Counts grow monotonically in r, so the first global argmin of the
    # gap is exactly what the scan-with-early-break used to return.
    stacked = np.concatenate(rows)
    if stacked.size and stacked.min() < 0:
        raise ValueError("distances must be non-negative")
    histogram = np.bincount(
        np.minimum(stacked, max_radius + 1), minlength=max_radius + 2
    )
    mean_counts = np.cumsum(histogram[: max_radius + 1]) / len(rows)
    gaps = np.abs(mean_counts - target_mean_candidates)
    return int(np.argmin(gaps))


def fixed_radius_candidates(distances: np.ndarray, radius: int) -> np.ndarray:
    """Indices within *radius*, in ascending index (priority-encoder) order."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return np.flatnonzero(np.asarray(distances, dtype=np.int64) <= radius)


def fixed_radius_candidates_batch(
    distances: np.ndarray, radius: int, cap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched threshold match + nearest-fallback + cap over (Q, N) rows.

    The per-query ``fixed_radius_candidates`` / ``argmin`` fallback /
    ``cap_candidates`` chain as one TCAM threshold match: a ``<= radius``
    mask flags every row's in-radius entries at once, drained in row
    order like the priority encoder -- nothing is sorted.  Per row:

    * rows with ``count`` in-radius entries keep all of them when
      ``count <= cap``, else the ``cap`` closest (ties by lowest index);
    * empty rows fall back to the single nearest signature (the
      threshold raised one step);
    * each row's survivors come back in ascending index order.

    Returns ``(padded, counts)``: ``padded`` is (Q, max(counts)) int64
    with each row's ``counts[q]`` candidate indices ascending, padded
    with ``N`` (one past the last valid index); ``counts`` is (Q,).
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    matrix = np.asarray(distances, dtype=np.int64)
    if matrix.ndim != 2:
        raise ValueError(f"distances must be (Q, N), got {matrix.shape}")
    num_queries, num_items = matrix.shape
    within = matrix <= radius
    counts = within.sum(axis=1)
    top = int(counts.max(initial=0))
    if top > cap:
        # One distance * N + index key per entry (exact while distances stay
        # below 2**63 / N) orders a row by distance, then index, with no
        # ties.  A row's cap smallest keys are its cap closest entries,
        # lowest index first (the cap_candidates rule), and they include
        # every in-radius entry of a row within the cap.
        keys = matrix * num_items + np.arange(num_items)
        within &= keys <= np.partition(keys, cap - 1, axis=1)[:, cap - 1 : cap]
        np.minimum(counts, cap, out=counts)
    if not counts.all():
        empty = counts == 0
        within[empty, matrix[empty].argmin(axis=1)] = True
        counts[empty] = 1
    width = max(1, min(top, cap))
    padded = np.full((num_queries, width), num_items, dtype=np.int64)
    # Row-major nonzero yields each row's survivors ascending, rows in order.
    padded[np.arange(width) < counts[:, None]] = within.nonzero()[1]
    return padded, counts


def cap_candidates(candidates: np.ndarray, distances: np.ndarray, cap: int) -> np.ndarray:
    """Keep at most *cap* candidates, preferring smaller distances.

    The item buffer has finite capacity; when the threshold match returns
    more rows than the buffer holds, the closest candidates are retained
    (realised in hardware by stepping the reference current down).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    chosen = np.asarray(candidates, dtype=np.int64)
    if chosen.shape[0] <= cap:
        return chosen
    all_distances = np.asarray(distances, dtype=np.int64)
    order = np.argsort(all_distances[chosen], kind="stable")
    return np.sort(chosen[order[:cap]])
