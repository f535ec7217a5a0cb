"""Frozen hypervolume reference: the recursive WFG algorithm over a
front cleaned without deduplication (oracle for
:func:`repro.indicators.hypervolume.hypervolume`)."""

from __future__ import annotations

import numpy as np

from repro.indicators.hypervolume import _hv_2d, _limit_set

from .dominance import nondominated_filter_reference as nondominated_filter

__all__ = ["clean_front_reference", "hypervolume_reference", "wfg"]


def clean_front_reference(front: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Drop points that do not dominate the reference point, then keep
    only the nondominated ones (duplicates are kept)."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return np.empty((0, ref.size))
    F = F[np.all(F < ref, axis=1)]
    if F.shape[0] == 0:
        return F
    return nondominated_filter(F)


def wfg(front: np.ndarray, ref: np.ndarray) -> float:
    """WFG exclusive-hypervolume recursion (front already clean)."""
    n = front.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(np.prod(ref - front[0]))
    # Sorting by the first objective improves limit-set degeneracy.
    order = np.argsort(front[:, 0])[::-1]
    F = front[order]
    hv = 0.0
    for i in range(F.shape[0]):
        p = F[i]
        incl = float(np.prod(ref - p))
        rest = F[i + 1 :]
        if rest.shape[0]:
            limited = nondominated_filter(_limit_set(p, rest))
            hv += incl - wfg(limited, ref)
        else:
            hv += incl
    return hv


def hypervolume_reference(front: np.ndarray, ref: np.ndarray | float) -> float:
    """Exact hypervolume of ``front`` w.r.t. reference point ``ref``:
    the 2-D sweep for two objectives, the WFG recursion for three or
    more."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return 0.0
    m = F.shape[1]
    r = np.full(m, float(ref)) if np.isscalar(ref) else np.asarray(ref, dtype=float)
    if r.shape != (m,):
        raise ValueError(f"reference point must have {m} components")
    F = clean_front_reference(F, r)
    if F.shape[0] == 0:
        return 0.0
    if m == 1:
        return float(r[0] - F[:, 0].min())
    if m == 2:
        return _hv_2d(F, r)
    return wfg(F, r)
