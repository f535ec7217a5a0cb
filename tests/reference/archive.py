"""Frozen full-scan archive update (oracle for the box-grid index of
:class:`repro.core.archive.EpsilonBoxArchive`)."""

from __future__ import annotations

import numpy as np

from repro.core.archive import AddResult, EpsilonBoxArchive
from repro.core.solution import Solution

__all__ = ["FullScanArchive", "as_full_scan", "full_scan_contest"]


def full_scan_contest(
    self: EpsilonBoxArchive, solution: Solution, box: np.ndarray, eps: np.ndarray
) -> AddResult:
    """Full-scan update: vectorised comparison against every member.

    Drops the archive's box-grid index first, so a production ``add``
    after a run of full-scan ones rebuilds it from the members.
    """
    self._index = None
    boxes = self._boxes
    le = boxes <= box
    ge = boxes >= box
    all_le = le.all(axis=1)
    all_ge = ge.all(axis=1)
    same = all_le & all_ge
    dominates_new = all_le & ~same      # existing box-dominates new
    dominated_by_new = all_ge & ~same   # new box-dominates existing

    if np.any(dominates_new):
        return AddResult(accepted=False)

    same_idx = np.flatnonzero(same)
    if same_idx.size:
        return self._same_box_contest(
            solution, self.solutions[int(same_idx[0])], box, eps
        )

    removed = []
    evict = np.flatnonzero(dominated_by_new)
    if evict.size:
        removed = [self.solutions[i] for i in evict]
        self._remove_indices(list(evict))
    self._append(solution)
    self.improvements += 1
    return AddResult(accepted=True, improvement=True, removed=removed)


class FullScanArchive(EpsilonBoxArchive):
    """An :class:`EpsilonBoxArchive` that settles every offer by a full
    scan of the members and never builds the box-grid index."""

    _contest = full_scan_contest


def as_full_scan(archive: EpsilonBoxArchive) -> FullScanArchive:
    """Switch ``archive`` (in place) to the full-scan update."""
    archive.__class__ = FullScanArchive
    archive._index = None
    return archive
