"""Frozen row-at-a-time non-dominated filter (oracle for
:func:`repro.core.dominance.nondominated_mask`)."""

from __future__ import annotations

import numpy as np

__all__ = ["nondominated_mask_reference", "nondominated_filter_reference"]


def _nondominated_mask_reference(F: np.ndarray) -> np.ndarray:
    """Row-at-a-time O(n^2) reference used to validate the fast paths."""
    n = F.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        # Rows that weakly dominate row i in every objective...
        le = np.all(F <= F[i], axis=1)
        # ...and strictly in at least one.
        lt = np.any(F < F[i], axis=1)
        dominators = le & lt
        dominators[i] = False
        if np.any(dominators & mask):
            mask[i] = False
            continue
        # Row i knocks out everything it dominates.
        ge = np.all(F >= F[i], axis=1)
        gt = np.any(F > F[i], axis=1)
        dominated = ge & gt
        mask[dominated] = False
        mask[i] = True
    return mask


def nondominated_mask_reference(objectives: np.ndarray) -> np.ndarray:
    """Drop-in for ``nondominated_mask``: same input handling, reference
    filter for every shape."""
    F = np.asarray(objectives, dtype=float)
    n = F.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    return _nondominated_mask_reference(F)


def nondominated_filter_reference(objectives: np.ndarray) -> np.ndarray:
    """Drop-in for ``nondominated_filter`` over the reference mask."""
    F = np.asarray(objectives, dtype=float)
    return F[nondominated_mask_reference(F)]
