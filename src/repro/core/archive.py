"""Epsilon-dominance archive with epsilon-progress tracking (paper §II).

The archive is the heart of the Borg MOEA: it stores the best
epsilon-nondominated solutions found so far, detects search stagnation
through its *epsilon-progress* counter, and supplies the per-operator
contribution counts that drive auto-adaptive operator selection.

Implementation note: the archive is consulted once per function
evaluation, so ``add`` is the master's serial hot path and directly
sets the throughput ceiling T_M behind the paper's master-saturation
bound (Eq. 3).  Each offer consults a :class:`_BoxGridIndex`: a hash of
occupied epsilon-boxes gives O(1) same-box hits, and an
:class:`~repro.core.dominance.IncrementalFront` over the box lattice
prunes dominance checks to the boxes that can possibly dominate (or be
dominated by) the candidate, so steady-state offers are sublinear in
|A|.  The index is derived state: it is rebuilt deterministically from
the members on first use (including after checkpoint restore), and its
decisions -- membership, epsilon-progress, and eviction sets -- are
bit-identical to a full scan of the front (``tests/test_archive_index.py``
fuzzes the equivalence against the full-scan oracle).

The box-index and objective matrices are mirrored in amortized
doubling buffers -- ``_boxes``/``_objectives`` are views of the filled
prefix -- so an ``add`` appends in O(1) amortized, and membership tests
run against a uid set in O(1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .dominance import IncrementalFront, epsilon_boxes, nondominated_mask
from .solution import Solution

__all__ = ["AddResult", "EpsilonBoxArchive"]


def _box_key(box: np.ndarray) -> bytes:
    """Hashable key of an epsilon-box index vector.

    ``+ 0.0`` normalises ``-0.0`` to ``+0.0`` so boxes that compare
    numerically equal never hash apart.
    """
    return (box + 0.0).tobytes()


class _BoxGridIndex:
    """Spatial index over the archive's occupied epsilon-boxes.

    One member per box (an archive invariant), so the grid maps each
    box key to exactly one storage slot of the underlying
    :class:`IncrementalFront`; side tables resolve slots to the living
    :class:`Solution` objects and back.  Because members are mutually
    non-box-dominated, a same-box hit proves that no other member can
    dominate the candidate or be dominated by it, which is what makes
    the O(1) grid lookup a complete fast path.
    """

    __slots__ = ("front", "grid", "slot_solution", "uid_slot")

    def __init__(self, m: int) -> None:
        self.front = IncrementalFront(m)
        #: box key -> front slot.
        self.grid: dict[bytes, int] = {}
        #: front slot -> archive member.
        self.slot_solution: dict[int, Solution] = {}
        #: member uid -> front slot.
        self.uid_slot: dict[int, int] = {}

    def rebuild(self, boxes: np.ndarray, solutions: Sequence[Solution]) -> None:
        for box, solution in zip(boxes, solutions):
            self.insert(box, solution)

    def insert(self, box: np.ndarray, solution: Solution) -> None:
        slot = self.front.insert(box)
        self.grid[_box_key(box)] = slot
        self.slot_solution[slot] = solution
        self.uid_slot[solution.uid] = slot

    def remove(self, solutions: Sequence[Solution]) -> None:
        slots = np.array(
            [self.uid_slot.pop(s.uid) for s in solutions], dtype=np.intp
        )
        for slot in slots:
            slot = int(slot)
            del self.grid[_box_key(np.asarray(self.front.value_at(slot)))]
            del self.slot_solution[slot]
        self.front.remove(slots)
        remap = self.front.compact_if_needed()
        if remap is not None:
            self.grid = {k: int(remap[v]) for k, v in self.grid.items()}
            self.slot_solution = {
                int(remap[s]): sol for s, sol in self.slot_solution.items()
            }
            self.uid_slot = {u: int(remap[s]) for u, s in self.uid_slot.items()}


@dataclass
class AddResult:
    """Outcome of offering one solution to the archive.

    Attributes
    ----------
    accepted:
        The solution is now an archive member.
    improvement:
        The addition counted as *epsilon-progress*: the solution opened
        a previously unoccupied epsilon-box or box-dominated existing
        members.  Same-box replacements do **not** count (Borg uses this
        distinction to detect stagnation: a run that only polishes
        within existing boxes is considered stalled).
    removed:
        Members evicted by this addition.
    """

    accepted: bool
    improvement: bool = False
    removed: list[Solution] = field(default_factory=list)


class EpsilonBoxArchive:
    """Bounded-resolution Pareto archive (Laumanns et al. 2002).

    Parameters
    ----------
    epsilons:
        Per-objective epsilon resolutions.  A scalar is broadcast to all
        objectives on first use (idempotently: the original input is
        kept, so repeated broadcasting -- e.g. across checkpoint
        restore -- is stable and never mutates caller-owned arrays).
    """

    def __init__(self, epsilons: Sequence[float] | float) -> None:
        eps = np.atleast_1d(np.asarray(epsilons, dtype=float)).copy()
        if np.any(eps <= 0):
            raise ValueError(f"epsilons must be positive, got {eps}")
        self._epsilons_input = eps
        self._epsilons = eps
        self._broadcast_m: Optional[int] = None
        self.solutions: list[Solution] = []
        self._box_buffer = np.empty((0, 0))
        self._objective_buffer = np.empty((0, 0))
        self._uid_buffer = np.empty(16, dtype=np.int64)
        self._size = 0
        self._uids: set = set()
        #: Box-grid index accelerating ``add`` (derived state, rebuilt
        #: lazily from the members whenever absent).
        self._index: Optional[_BoxGridIndex] = None
        #: Cumulative count of epsilon-progress improvements.
        self.improvements = 0
        #: Archive membership per producing-operator tag.
        self.operator_counts: Counter[str] = Counter()
        self._best_violation = np.inf

    # -- basic container protocol ----------------------------------------
    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __contains__(self, solution: Solution) -> bool:
        return solution.uid in self._uids

    @property
    def _boxes(self) -> np.ndarray:
        """Box-index matrix (view of the filled buffer prefix)."""
        return self._box_buffer[: self._size]

    @property
    def _objectives(self) -> np.ndarray:
        """Objective matrix (view of the filled buffer prefix)."""
        return self._objective_buffer[: self._size]

    @property
    def epsilons(self) -> np.ndarray:
        return self._epsilons

    @property
    def objectives(self) -> np.ndarray:
        """Matrix of archive objective vectors, shape ``(len, M)``.

        A zero-copy **read-only view** of the live buffer prefix: hot
        callers (selection, diagnostics, per-ingest history recording)
        pay nothing, and accidental mutation raises.  The view tracks
        the archive -- take a ``.copy()`` to keep a snapshot across
        later ``add`` calls.
        """
        view = self._objective_buffer[: self._size].view()
        view.flags.writeable = False
        return view

    def _broadcast_epsilons(self, m: int) -> np.ndarray:
        if self._broadcast_m is None:
            if self._epsilons_input.size == 1 and m > 1:
                self._epsilons = np.full(m, self._epsilons_input[0])
            elif self._epsilons_input.size != m:
                raise ValueError(
                    f"{self._epsilons_input.size} epsilons but {m} objectives"
                )
            self._broadcast_m = m
        elif m != self._broadcast_m:
            raise ValueError(
                f"{self._epsilons.size} epsilons but {m} objectives"
            )
        return self._epsilons

    # -- core update --------------------------------------------------------
    def add(self, solution: Solution) -> AddResult:
        """Offer ``solution`` to the archive.

        Returns an :class:`AddResult`; see its docstring for the
        epsilon-progress semantics.
        """
        if not solution.evaluated:
            raise ValueError("cannot archive an unevaluated solution")
        if not np.all(np.isfinite(solution.objectives)):
            return AddResult(accepted=False)

        m = solution.objectives.size
        eps = self._broadcast_epsilons(m)

        # Constraint handling: the archive only mixes solutions of equal
        # violation tier.  A strictly-better violation flushes the
        # archive; a strictly-worse one is rejected outright.
        violation = solution.constraint_violation
        if violation > self._best_violation:
            return AddResult(accepted=False)
        if violation < self._best_violation:
            removed = self.solutions
            self._reset(m)
            self._best_violation = violation
            self._append(solution)
            self.improvements += 1
            return AddResult(accepted=True, improvement=True, removed=removed)

        box = epsilon_boxes(solution.objectives, eps)

        if not self.solutions:
            self._reset(m)
            self._best_violation = violation
            self._append(solution)
            self.improvements += 1
            return AddResult(accepted=True, improvement=True)

        return self._contest(solution, box, eps)

    def add_all(self, solutions: Sequence[Solution]) -> int:
        """Bulk offer: fold a whole batch of solutions into the archive.

        The batch is reduced with vectorised passes before any member
        contest runs: per epsilon-box only the corner-nearest candidate
        survives (exactly the winner a sequential same-box contest chain
        would keep -- box-domination implies corner-proximity, and ties
        keep the earliest), and candidates whose boxes are box-dominated
        within the batch are dropped (transitivity: any evictor of their
        dominator dominates them too).  Only the survivors -- mutually
        non-box-dominated, one per box -- are offered through
        :meth:`add`, so a merge of ``n`` solutions costs ``s`` archive
        contests for ``s`` surviving boxes instead of ``n``.

        The final membership is identical, as a set, to calling
        :meth:`add` once per solution in any order (exact same-box
        distance ties excepted -- there the earliest offer wins on both
        paths).  Epsilon-progress accounting reflects the reduced batch:
        ``improvements`` advances once per surviving insertion, not once
        per hypothetical intermediate accept.

        Returns the number of solutions accepted.
        """
        batch = [s for s in solutions if s is not None]
        if not batch:
            return 0
        for s in batch:
            if not s.evaluated:
                raise ValueError("cannot archive an unevaluated solution")
        finite = [s for s in batch if np.all(np.isfinite(s.objectives))]
        if not finite:
            return 0

        # Constraint tiers follow the sequential semantics: only offers
        # in the best violation tier seen by the end of the batch can be
        # members afterwards, and a strictly-better tier flushes the
        # incumbents (handled by the first surviving ``add``).
        violations = np.array([s.constraint_violation for s in finite])
        vbest = min(float(violations.min()), self._best_violation)
        tier = [
            s for s, v in zip(finite, violations) if float(v) == vbest
        ]
        if not tier:
            return 0

        m = tier[0].objectives.size
        eps = self._broadcast_epsilons(m)
        O = np.array([s.objectives for s in tier])
        B = epsilon_boxes(O, eps)
        corner_d = np.einsum("ij,ij->i", O - B * eps, O - B * eps)

        # Per-box winner: the corner-nearest candidate, earliest on
        # ties (box-domination within a box implies corner-proximity,
        # so this is the sequential contest chain's survivor).
        winner: dict[bytes, int] = {}
        for i in range(len(tier)):
            key = _box_key(B[i])
            j = winner.get(key)
            if j is None or corner_d[i] < corner_d[j]:
                winner[key] = i
        idx = sorted(winner.values())
        survivors = np.array(idx, dtype=np.intp)
        mask = nondominated_mask(B[survivors])
        accepted = 0
        for i in survivors[mask]:
            if self.add(tier[int(i)]).accepted:
                accepted += 1
        return accepted

    def _contest(
        self, solution: Solution, box: np.ndarray, eps: np.ndarray
    ) -> AddResult:
        """Settle a same-tier offer to a non-empty archive through the
        box-grid index: O(1) same-box hit, pruned dominance scans.

        Decision-equivalent to a full scan of the members: members are
        mutually non-box-dominated, so a same-box incumbent excludes
        both dominators and victims, and otherwise the incremental
        front's sum-bounded scans see exactly the members the full scan
        would flag.
        """
        index = self._index
        if index is None:
            index = self._index = _BoxGridIndex(box.size)
            index.rebuild(self._boxes, self.solutions)

        slot = index.grid.get(_box_key(box))
        if slot is not None:
            return self._same_box_contest(
                solution, index.slot_solution[slot], box, eps
            )

        dominated, victim_slots = index.front.query(box)
        if dominated:
            return AddResult(accepted=False)

        removed: list[Solution] = []
        if victim_slots.size:
            victims = [index.slot_solution[int(s)] for s in victim_slots]
            positions = sorted(self._position_of(v) for v in victims)
            removed = [self.solutions[i] for i in positions]
            self._remove_indices(positions)
        self._append(solution)
        self.improvements += 1
        return AddResult(accepted=True, improvement=True, removed=removed)

    def _same_box_contest(
        self, solution: Solution, incumbent: Solution, box: np.ndarray,
        eps: np.ndarray,
    ) -> AddResult:
        """Resolve a same-box offer against the box's incumbent."""
        if self._same_box_keep_new(solution, incumbent, box, eps):
            self._remove_indices([self._position_of(incumbent)])
            self._append(solution)
            return AddResult(
                accepted=True, improvement=False, removed=[incumbent]
            )
        return AddResult(accepted=False)

    @staticmethod
    def _same_box_keep_new(
        new: Solution, old: Solution, box: np.ndarray, eps: np.ndarray
    ) -> bool:
        new_le = bool(np.all(new.objectives <= old.objectives))
        old_le = bool(np.all(old.objectives <= new.objectives))
        if new_le and not old_le:
            return True
        if old_le and not new_le:
            return False
        corner = box * eps
        d_new = float(np.sum((new.objectives - corner) ** 2))
        d_old = float(np.sum((old.objectives - corner) ** 2))
        return d_new < d_old

    # -- storage helpers ---------------------------------------------------
    def _position_of(self, member: Solution) -> int:
        """Membership-list position of ``member``, via one vectorised
        uid scan (a Python-level ``list.index`` walk is the hot-path
        bottleneck at large archive sizes)."""
        return int(
            np.flatnonzero(self._uid_buffer[: self._size] == member.uid)[0]
        )

    def _reset(self, m: int) -> None:
        self.solutions = []
        if self._box_buffer.shape[1] != m:
            self._box_buffer = np.empty((16, m))
            self._objective_buffer = np.empty((16, m))
        self._size = 0
        self._uids.clear()
        self._index = None
        self.operator_counts = Counter()

    def _grow(self, m: int) -> None:
        capacity = max(16, 2 * self._box_buffer.shape[0])
        for name in ("_box_buffer", "_objective_buffer"):
            old = getattr(self, name)
            buf = np.empty((capacity, m))
            buf[: self._size] = old[: self._size]
            setattr(self, name, buf)
        if self._uid_buffer.shape[0] < capacity:
            uids = np.empty(capacity, dtype=np.int64)
            uids[: self._size] = self._uid_buffer[: self._size]
            self._uid_buffer = uids

    def _append(self, solution: Solution) -> None:
        eps = self._epsilons
        box = epsilon_boxes(solution.objectives, eps)
        if self._size == self._box_buffer.shape[0]:
            self._grow(box.size)
        self.solutions.append(solution)
        self._box_buffer[self._size] = box
        self._objective_buffer[self._size] = solution.objectives
        self._uid_buffer[self._size] = solution.uid
        self._size += 1
        self._uids.add(solution.uid)
        self.operator_counts[solution.operator] += 1
        if self._index is not None:
            self._index.insert(box, solution)

    def _remove_indices(self, indices: list[int]) -> None:
        if self._index is not None:
            self._index.remove([self.solutions[i] for i in indices])
        for i in indices:
            self.operator_counts[self.solutions[i].operator] -= 1
            self._uids.discard(self.solutions[i].uid)
        n = self._size
        if len(indices) <= 8:
            # Few victims (the common case): order-preserving positional
            # deletes and tail shifts, instead of rebuilding the whole
            # membership storage.
            for i in reversed(indices):
                del self.solutions[i]
                self._box_buffer[i : n - 1] = self._box_buffer[i + 1 : n].copy()
                self._objective_buffer[i : n - 1] = (
                    self._objective_buffer[i + 1 : n].copy()
                )
                self._uid_buffer[i : n - 1] = self._uid_buffer[i + 1 : n].copy()
                n -= 1
            self._size = n
            return
        keep = np.ones(n, dtype=bool)
        keep[indices] = False
        self.solutions = [s for s, k in zip(self.solutions, keep) if k]
        kept = int(np.count_nonzero(keep))
        # Compact the survivors into the buffer prefix in place.
        self._box_buffer[:kept] = self._box_buffer[:n][keep]
        self._objective_buffer[:kept] = self._objective_buffer[:n][keep]
        self._uid_buffer[:kept] = self._uid_buffer[:n][keep]
        self._size = kept

    # -- queries ------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> Solution:
        """Uniformly random archive member (Borg's archive parent)."""
        if not self.solutions:
            raise IndexError("archive is empty")
        return self.solutions[int(rng.integers(len(self.solutions)))]

    def __repr__(self) -> str:
        return (
            f"<EpsilonBoxArchive size={len(self.solutions)} "
            f"improvements={self.improvements}>"
        )
