"""Dominance comparators: Pareto, constrained, and epsilon-box.

All objectives are minimised.  Comparator convention (mirrors ``cmp``):

* return ``-1`` -- the first argument is better (dominates),
* return ``+1`` -- the second argument is better,
* return ``0``  -- neither dominates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .solution import Solution

__all__ = [
    "pareto_compare",
    "constrained_compare",
    "epsilon_boxes",
    "epsilon_box_compare",
    "nondominated_mask",
    "nondominated_filter",
    "IncrementalFront",
]


def pareto_compare(a: np.ndarray, b: np.ndarray) -> int:
    """Pareto-compare two objective vectors."""
    a_le_b = bool(np.all(a <= b))
    b_le_a = bool(np.all(b <= a))
    if a_le_b and not b_le_a:
        return -1
    if b_le_a and not a_le_b:
        return 1
    return 0


def constrained_compare(a: Solution, b: Solution) -> int:
    """Constraint-dominance (Deb's rules) then Pareto dominance.

    A feasible solution beats an infeasible one; between two infeasible
    solutions the smaller aggregate violation wins; between two feasible
    solutions ordinary Pareto dominance applies.
    """
    va, vb = a.constraint_violation, b.constraint_violation
    if va > 0.0 or vb > 0.0:
        if va < vb:
            return -1
        if vb < va:
            return 1
        if va > 0.0:
            return 0
    return pareto_compare(a.objectives, b.objectives)


def epsilon_boxes(objectives: np.ndarray, epsilons: np.ndarray) -> np.ndarray:
    """Map objective vectors to their epsilon-box indices.

    ``objectives`` may be a single vector or an ``(n, m)`` matrix.  Box
    indices are ``floor(f / epsilon)`` per Laumanns et al. (2002).
    """
    return np.floor(np.asarray(objectives, dtype=float) / epsilons)


def epsilon_box_compare(
    a: np.ndarray, b: np.ndarray, epsilons: np.ndarray
) -> int:
    """Epsilon-box dominance of two objective vectors.

    If the boxes differ, ordinary Pareto dominance of the box indices
    decides.  Within the same box, the vector closer (Euclidean) to the
    box's lower corner wins; exact ties are non-dominated.
    """
    box_a = epsilon_boxes(a, epsilons)
    box_b = epsilon_boxes(b, epsilons)
    cmp_box = pareto_compare(box_a, box_b)
    if cmp_box != 0 or not np.array_equal(box_a, box_b):
        return cmp_box
    corner = box_a * epsilons
    da = float(np.sum((a - corner) ** 2))
    db = float(np.sum((b - corner) ** 2))
    if da < db:
        return -1
    if db < da:
        return 1
    return 0


def _nondominated_mask_2d(F: np.ndarray) -> np.ndarray:
    """Sort-based sweep for two objectives, O(n log n).

    ``np.unique`` sorts the distinct rows lexicographically; scanning
    them in that order, a row is dominated iff some earlier distinct row
    has f2 <= its f2 (earlier means f1 strictly smaller, or f1 equal and
    f2 strictly smaller -- either way at least one strict coordinate).
    Duplicate rows never dominate each other, so they share the fate of
    their distinct representative via the inverse map.
    """
    U, inverse = np.unique(F, axis=0, return_inverse=True)
    f2 = U[:, 1]
    best_before = np.empty_like(f2)
    best_before[0] = np.inf
    np.minimum.accumulate(f2[:-1], out=best_before[1:])
    return (best_before > f2)[inverse.ravel()]


def _nondominated_mask_blocked(F: np.ndarray, block: int = 64) -> np.ndarray:
    """Block-wise broadcast filter, O(n^2 / block) numpy calls.

    Rows are processed in ascending objective-sum order: pairwise sums
    are monotone under weak domination, so every candidate dominator of
    a block row lies at or before the end of that block.  Each block is
    compared in one broadcast against the candidate set -- the rows of
    the already-pruned prefix that survived, plus the block itself
    (self-pairs are harmless: ``lt`` is false on identical rows).  The
    ``le``/``lt`` planes accumulate objective by objective, avoiding
    (cand, block, m) 3-D temporaries.  Pruning the prefix is exact: any
    dominated row keeps at least one globally nondominated dominator
    (transitivity), and such dominators are never killed.
    """
    n, m = F.shape
    order = np.argsort(F.sum(axis=1), kind="stable")
    S = np.ascontiguousarray(F[order])
    alive = np.ones(n, dtype=bool)
    cols = [np.ascontiguousarray(S[:, j]) for j in range(m)]
    for start in range(0, n, block):
        stop = min(start + block, n)
        cand = np.flatnonzero(alive[:stop])
        le = np.ones((cand.size, stop - start), dtype=bool)
        lt = np.zeros((cand.size, stop - start), dtype=bool)
        for j in range(m):
            pj = cols[j][cand][:, None]
            bj = cols[j][start:stop][None, :]
            le &= pj <= bj
            lt |= pj < bj
        alive[start:stop] = ~(le & lt).any(axis=0)
    mask = np.empty(n, dtype=bool)
    mask[order] = alive
    return mask


def nondominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of Pareto-nondominated rows of an ``(n, m)`` matrix.

    Dispatches on shape: a minimum test for one objective, an
    O(n log n) sort-based sweep for two, a block-wise broadcast filter
    otherwise.  Each returns the set of rows with no dominator, exactly
    the mask of the row-at-a-time reference the tests keep as oracle.
    """
    F = np.asarray(objectives, dtype=float)
    n = F.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    if F.shape[1] == 1:
        return F[:, 0] == F[:, 0].min()
    if F.shape[1] == 2:
        return _nondominated_mask_2d(F)
    return _nondominated_mask_blocked(F)


def nondominated_filter(objectives: np.ndarray) -> np.ndarray:
    """Return only the Pareto-nondominated rows of ``objectives``."""
    F = np.asarray(objectives, dtype=float)
    return F[nondominated_mask(F)]


_EMPTY_SLOTS = np.empty(0, dtype=np.intp)


class IncrementalFront:
    """Incremental nondominated set with sublinear steady-state inserts.

    Maintains a set of mutually nondominated vectors under a stream of
    ``offer`` calls, in the spirit of incremental asynchronous
    non-dominated sorting (Yakupov & Buzdalov, arXiv:1804.05208): each
    new vector is checked only against the members that can possibly
    dominate it or be dominated by it, instead of the whole set.

    The pruning exploits the monotonicity of coordinate sums under weak
    domination: if ``a`` weakly dominates ``b`` componentwise then
    ``sum(a) <= sum(b)`` (floating-point addition is monotone), so the
    members are kept ordered by coordinate sum and a binary search
    bounds both scans.  The dominated-check probes a small tail block
    just below the sum bound first: a dominator of a near-front vector
    typically differs in few coordinates, so its sum sits just below
    the candidate's, and a deeply dominated vector is dominated by
    almost everything -- either way the tail block usually decides,
    and one vectorised pass over the remainder settles the rest.  Scan
    candidates are kept in a dense sum-ordered transposed ``(m, n)``
    matrix so a pass is a single contiguous 2-D comparison with an
    axis-0 reduction (no row gathers).  Two
    conservative per-objective bounds (running coordinate minima /
    maxima, in the style of an ND-tree's ideal and nadir corners) skip
    whole scans when the new vector extends past the set's bounding box.

    Storage is slotted: member vectors live in an amortized doubling
    matrix, evictions tombstone their slot, and tombstones are compacted
    away in batches once they outnumber the live members.  The structure
    is the dominance layer under :class:`~repro.core.archive.
    EpsilonBoxArchive`'s box-grid index (where the vectors are integer
    epsilon-box indices) and is equally usable standalone over raw
    objective vectors, e.g. to maintain the first front of a
    steady-state population without re-running ``nondominated_mask``
    from scratch per insert.

    Semantics match :func:`nondominated_mask`: exact duplicates are
    mutually nondominated and coexist.
    """

    __slots__ = (
        "_m",
        "_values",
        "_alive",
        "_n_slots",
        "_n_live",
        "_sum_keys",
        "_sum_slots",
        "_sorted_T",
        "_pend_T",
        "_pend_keys",
        "_pend_slots",
        "_n_pend",
        "_lower",
        "_upper",
        "_block",
    )

    #: Pending-block width: inserts land in a small unsorted block that
    #: is brute-force scanned, and are only merged into the sorted scan
    #: structures once the block fills, so the O(n) merge is amortized
    #: over this many inserts.
    _PEND_CAP = 256

    def __init__(self, m: int, block: int = 64) -> None:
        if m < 1:
            raise ValueError("need at least one coordinate")
        if block < 1:
            raise ValueError("block must be >= 1")
        self._m = int(m)
        self._values = np.empty((16, self._m))
        self._alive = np.zeros(16, dtype=bool)
        self._n_slots = 0
        self._n_live = 0
        self._sum_keys = np.empty(0)
        self._sum_slots = _EMPTY_SLOTS
        #: Merged member vectors in sum order, transposed to (m, n) so
        #: scans run as contiguous per-objective 1-D comparisons.
        self._sorted_T = np.empty((self._m, 0))
        #: Recent inserts awaiting merge (columns aligned with
        #: ``_pend_keys``/``_pend_slots``).
        self._pend_T = np.empty((self._m, self._PEND_CAP))
        self._pend_keys = np.empty(self._PEND_CAP)
        self._pend_slots = np.empty(self._PEND_CAP, dtype=np.intp)
        self._n_pend = 0
        #: Conservative coordinate bounds over the live members (never
        #: tightened on eviction except at compaction, so they may be
        #: loose -- which only costs a skipped shortcut, never
        #: correctness).
        self._lower = np.full(self._m, np.inf)
        self._upper = np.full(self._m, -np.inf)
        self._block = int(block)

    @classmethod
    def from_matrix(cls, objectives: np.ndarray, block: int = 64) -> "IncrementalFront":
        """Build a front by offering each row of ``objectives`` in order."""
        F = np.atleast_2d(np.asarray(objectives, dtype=float))
        front = cls(F.shape[1], block=block)
        for row in F:
            front.offer(row)
        return front

    def __len__(self) -> int:
        return self._n_live

    @property
    def values(self) -> np.ndarray:
        """Live member vectors in insertion order, shape ``(len, m)``."""
        live = np.flatnonzero(self._alive[: self._n_slots])
        return self._values[live]

    def value_at(self, slot: int) -> np.ndarray:
        """The vector stored in ``slot`` (a read-only view)."""
        view = self._values[slot].view()
        view.flags.writeable = False
        return view

    # -- queries -----------------------------------------------------------
    def dominated(self, f: np.ndarray) -> bool:
        """True if some live member dominates ``f``."""
        if self._n_live == 0 or np.any(f < self._lower):
            # A dominator needs every coordinate <= f's; a coordinate of
            # f below the set-wide minimum rules that out immediately.
            return False
        s = float(f.sum())
        fc = f[:, None]
        # Recent inserts first: they are the current best vectors, so
        # they decide most queries, and the pending block is one small
        # dense comparison.
        k = self._n_pend
        if k:
            P = self._pend_T[:, :k]
            weak = (P <= fc).all(axis=0)
            if weak.any():
                hit = np.flatnonzero(weak)
                if (self._pend_keys[hit] < s).any():
                    return True
                if not (P[:, hit] == fc).all(axis=0).all():
                    return True
        hi = int(np.searchsorted(self._sum_keys, s, side="right"))
        T = self._sorted_T
        # Geometric descending scan: dominators cluster just below the
        # sum bound (a dominator of a near-front vector differs in few
        # coordinates, and a deeply dominated vector is dominated by
        # almost everything), so walk down from ``hi`` in blocks that
        # grow 4x per miss.  Hits exit after a handful of small dense
        # comparisons; a clean accept degrades to the full-range scan
        # plus a few extra dispatches.
        stop = hi
        width = self._block
        while stop > 0:
            lo = stop - width if stop > width else 0
            weak = (T[:, lo:stop] <= fc).all(axis=0)
            if weak.any():
                # A weak dominator with a strictly smaller sum is
                # strict for sure; the sum keys are sorted, so one
                # scalar probe of the smallest-sum hit decides.
                if self._sum_keys[int(np.argmax(weak)) + lo] < s:
                    return True
                # Otherwise the hits share f's sum: strict unless
                # exactly equal (duplicates coexist, don't dominate).
                cand = np.flatnonzero(weak) + lo
                if not (T[:, cand] == fc).all(axis=0).all():
                    return True
            stop = lo
            width *= 4
        return False

    def victims(self, f: np.ndarray) -> np.ndarray:
        """Slots of live members dominated by ``f``."""
        if self._n_live == 0 or np.any(f > self._upper):
            return _EMPTY_SLOTS
        s = float(f.sum())
        fc = f[:, None]
        hits = _EMPTY_SLOTS
        lo = int(np.searchsorted(self._sum_keys, s, side="left"))
        if lo < self._sum_slots.size:
            T = self._sorted_T
            ge = (T[:, lo:] >= fc).all(axis=0)
            if ge.any():
                cand = np.flatnonzero(ge) + lo
                # Hits with sum > s are strictly dominated for sure;
                # only the equal-sum run right at ``lo`` can contain
                # exact duplicates.
                k = int(np.searchsorted(self._sum_keys, s, side="right"))
                head = cand[cand < k]
                if head.size:
                    eq = (T[:, head] == fc).all(axis=0)
                    if eq.any():
                        cand = np.concatenate([head[~eq], cand[cand >= k]])
                hits = self._sum_slots[cand]
        n_pend = self._n_pend
        if n_pend:
            P = self._pend_T[:, :n_pend]
            ge = (P >= fc).all(axis=0)
            if ge.any():
                # The block is small: check strictness (not an exact
                # duplicate) directly on the hits.
                hit = np.flatnonzero(ge)
                hit = hit[(P[:, hit] != fc).any(axis=0)]
                if hit.size:
                    hits = np.concatenate([hits, self._pend_slots[hit]])
        if not hits.size:
            return hits
        # Removal is lazy, so the scans may hit tombstoned columns.
        return hits[self._alive[hits]]

    def query(self, f: np.ndarray) -> tuple[bool, np.ndarray]:
        """``(dominated, victim_slots)`` for offering ``f``.

        When ``dominated`` is True the victim scan is skipped (a
        dominated vector cannot dominate any member, by transitivity
        and mutual nondomination of the members).
        """
        f = np.asarray(f, dtype=float)
        if self.dominated(f):
            return True, _EMPTY_SLOTS
        return False, self.victims(f)

    # -- mutation ----------------------------------------------------------
    def insert(self, f: np.ndarray) -> int:
        """Store ``f`` (assumed nondominated; evict its victims first)
        and return its slot id."""
        f = np.asarray(f, dtype=float)
        slot = self._n_slots
        if slot == self._values.shape[0]:
            capacity = max(16, 2 * slot)
            values = np.empty((capacity, self._m))
            values[:slot] = self._values[:slot]
            alive = np.zeros(capacity, dtype=bool)
            alive[:slot] = self._alive[:slot]
            self._values, self._alive = values, alive
        self._values[slot] = f
        self._alive[slot] = True
        self._n_slots += 1
        self._n_live += 1
        j = self._n_pend
        self._pend_T[:, j] = f
        self._pend_keys[j] = f.sum()
        self._pend_slots[j] = slot
        self._n_pend = j + 1
        if self._n_pend == self._PEND_CAP:
            self._merge_pending()
        np.minimum(self._lower, f, out=self._lower)
        np.maximum(self._upper, f, out=self._upper)
        return slot

    def _merge_pending(self) -> None:
        """Fold the pending block into the sorted scan structures with
        one batched ``np.insert`` per array (O(n + cap), amortized over
        a block's worth of inserts)."""
        k = self._n_pend
        if not k:
            return
        order = np.argsort(self._pend_keys[:k], kind="stable")
        keys = self._pend_keys[:k][order]
        pos = np.searchsorted(self._sum_keys, keys, side="left")
        self._sum_keys = np.insert(self._sum_keys, pos, keys)
        self._sum_slots = np.insert(
            self._sum_slots, pos, self._pend_slots[:k][order]
        )
        self._sorted_T = np.insert(
            self._sorted_T, pos, self._pend_T[:, :k][:, order], axis=1
        )
        self._n_pend = 0

    def remove(self, slots: np.ndarray) -> None:
        """Tombstone the given slots (batched, lazy).

        The sorted scan structures keep the dead columns until the next
        compaction: a stale entry can only ever *agree* with the live
        set, never contradict it.  A member is only removed when its
        evictor -- a vector that weakly dominates it -- is inserted in
        the same update, so any stale strict dominator of a query
        implies a live one (the head of its eviction chain), and a
        stale exact duplicate has a live twin with identical
        coordinates.  ``victims`` filters its hits through the alive
        mask, so dead slots are never reported.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if not slots.size:
            return
        self._alive[slots] = False
        self._n_live -= int(slots.size)

    def compact_if_needed(self) -> Optional[np.ndarray]:
        """Rewrite storage without tombstones once they dominate it.

        Returns the old-slot -> new-slot remap array (``-1`` for dead
        slots) when a compaction ran, else ``None``; callers holding
        slot ids must apply the remap.
        """
        n_dead = self._n_slots - self._n_live
        if n_dead <= max(64, self._n_live):
            return None
        keep = np.flatnonzero(self._alive[: self._n_slots])
        remap = np.full(self._n_slots, -1, dtype=np.intp)
        remap[keep] = np.arange(keep.size, dtype=np.intp)
        capacity = max(16, int(2 ** np.ceil(np.log2(max(1, keep.size)))))
        values = np.empty((capacity, self._m))
        values[: keep.size] = self._values[keep]
        alive = np.zeros(capacity, dtype=bool)
        alive[: keep.size] = True
        self._values, self._alive = values, alive
        self._n_slots = int(keep.size)
        # Purge the lazily-tombstoned columns from the scan structures
        # in the same pass.  The per-row sums reproduce the incremental
        # ``f.sum()`` keys exactly (same data, same summation order for
        # small m), so the rebuilt keys are bit-identical.
        live = self._values[: keep.size]
        sums = live.sum(axis=1)
        order = np.argsort(sums, kind="stable")
        self._sum_keys = sums[order]
        self._sum_slots = order.astype(np.intp)
        self._sorted_T = np.ascontiguousarray(live[order].T)
        self._n_pend = 0  # every live member is in the rebuilt arrays
        if keep.size:
            self._lower = live.min(axis=0)
            self._upper = live.max(axis=0)
        else:
            self._lower = np.full(self._m, np.inf)
            self._upper = np.full(self._m, -np.inf)
        return remap

    def offer(self, f: np.ndarray) -> bool:
        """Standalone convenience: insert ``f`` unless dominated,
        evicting the members it dominates.  Returns True on accept."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self._m,):
            raise ValueError(f"expected a length-{self._m} vector, got {f.shape}")
        dominated, victims = self.query(f)
        if dominated:
            return False
        self.remove(victims)
        self.insert(f)
        self.compact_if_needed()
        return True

    def __repr__(self) -> str:
        return (
            f"<IncrementalFront size={self._n_live} "
            f"slots={self._n_slots} m={self._m}>"
        )
