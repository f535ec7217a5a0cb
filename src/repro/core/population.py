"""Borg's fixed-size population with steady-state replacement.

Replacement rule (Hadka & Reed 2012): an offspring that dominates one or
more population members replaces one of those members at random; an
offspring dominated by any member is rejected; an offspring mutually
nondominated with the whole population replaces a random member.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .solution import Solution

__all__ = ["Population"]


class Population:
    """Unordered population with in-place dominance matrices.

    The objective and violation matrices live in amortised-doubling
    buffers, as in :class:`~repro.core.archive.EpsilonBoxArchive`:
    members appended since the last comparison are copied in when one
    is next needed, and a replacement overwrites its one column.  The
    objective buffer is ``(M, capacity)``, so a row-wise ``all`` over
    the M objectives reduces over the leading axis, which NumPy does
    several times faster than over a short trailing one.  Change
    ``solutions`` only through these methods, or the buffers go stale.
    """

    def __init__(self, solutions: Optional[Sequence[Solution]] = None) -> None:
        self.solutions: list[Solution] = list(solutions or [])
        self._objective_buffer = np.empty((0, 0))
        self._violation_buffer = np.empty(0)
        #: Leading members whose columns are in the buffers.
        self._filled = 0

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __getitem__(self, index: int) -> Solution:
        return self.solutions[index]

    def clear(self) -> None:
        self.solutions = []
        self._filled = 0

    def append(self, solution: Solution) -> None:
        """Add without replacement (used while filling after a restart)."""
        self.solutions.append(solution)

    # -- buffered matrices ---------------------------------------------------
    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(M, N)`` objectives and ``(N,)`` violations, as views of the
        buffers' filled prefix."""
        n = len(self.solutions)
        if self._filled < n:
            self._copy_in(n)
        return self._objective_buffer[:, :n], self._violation_buffer[:n]

    def _copy_in(self, n: int) -> None:
        """Write the columns of members appended since the last copy."""
        m = np.size(self.solutions[0].objectives)
        if self._objective_buffer.shape[0] != m:
            self._objective_buffer = np.empty((m, 0))
            self._violation_buffer = np.empty(0)
            self._filled = 0
        done = self._filled
        if n > self._violation_buffer.size:
            capacity = max(16, 2 * self._violation_buffer.size, n)
            F, V = np.empty((m, capacity)), np.empty(capacity)
            F[:, :done] = self._objective_buffer[:, :done]
            V[:done] = self._violation_buffer[:done]
            self._objective_buffer, self._violation_buffer = F, V
        fresh = self.solutions[done:n]
        self._objective_buffer[:, done:n] = np.array(
            [s.objectives for s in fresh], dtype=float
        ).T
        self._violation_buffer[done:n] = [s.constraint_violation for s in fresh]
        self._filled = n

    # -- steady-state replacement ----------------------------------------------
    def add(self, offspring: Solution, rng: np.random.Generator) -> bool:
        """Steady-state insertion; returns True if the offspring entered."""
        if not offspring.evaluated:
            raise ValueError("cannot insert an unevaluated solution")
        if not self.solutions:
            self.append(offspring)
            return True

        F, V = self._matrices()
        fo = offspring.objectives
        vo = offspring.constraint_violation

        # Constrained-dominance, vectorised: a member dominates the
        # offspring if it wins on violation, or ties on violation and
        # Pareto-dominates.  A member or offspring with a NaN objective
        # is all-False in both ``le`` and ``ge``, so it neither
        # dominates nor is dominated.
        better_violation = V < vo
        worse_violation = V > vo
        equal_violation = ~(better_violation | worse_violation)
        column = np.reshape(fo, (-1, 1))
        le = (F <= column).all(axis=0)
        ge = (F >= column).all(axis=0)

        dominated = np.flatnonzero(worse_violation | (ge & ~le & equal_violation))
        if dominated.size:
            # Same draw as ``rng.choice(dominated)``, without its overhead.
            victim = int(dominated[rng.integers(dominated.size)])
        elif np.any(better_violation | (le & ~ge & equal_violation)):
            return False
        else:
            victim = int(rng.integers(len(self.solutions)))
        self.solutions[victim] = offspring
        self._objective_buffer[:, victim] = fo
        self._violation_buffer[victim] = vo
        return True

    # -- selection -------------------------------------------------------------
    def tournament(self, size: int, rng: np.random.Generator) -> Solution:
        """Tournament selection with constrained-Pareto comparisons.

        ``size`` candidates are drawn with replacement; the winner is a
        candidate not beaten by any other drawn candidate (ties broken
        by draw order, matching Borg's pairwise knockout).  One
        ``rng.integers(n, size=size)`` call consumes the generator
        exactly as ``size`` scalar draws do.  The knockout jumps from
        the current winner straight to the first later candidate that
        beats it, one vectorised comparison per change of winner.
        """
        if not self.solutions:
            raise IndexError("population is empty")
        n = len(self.solutions)
        size = max(1, min(size, n))
        picks = rng.integers(n, size=size)
        winner = 0
        if size > 1:
            F, V = self._matrices()
            f, v = F[:, picks], V[picks]
            constrained = bool(v.any())
            while winner < size - 1:
                rest, fw = f[:, winner + 1 :], f[:, winner : winner + 1]
                # beats[j]: constrained_compare(later candidate j, winner) < 0
                beats = (rest <= fw).all(axis=0) & ~(rest >= fw).all(axis=0)
                if constrained:
                    # Deb's rules; as in ``constrained_compare``, a pair
                    # with a NaN violation falls through to Pareto.
                    vr, vw = v[winner + 1 :], v[winner]
                    lt = vr < vw
                    by_violation = (vr > 0) | ((vw > 0) & (lt | (vr > vw)))
                    beats = np.where(by_violation, lt, beats)
                hits = np.flatnonzero(beats)
                if not hits.size:
                    break
                winner += 1 + int(hits[0])
        return self.solutions[int(picks[winner])]

    def sample(self, rng: np.random.Generator) -> Solution:
        """Uniformly random member."""
        if not self.solutions:
            raise IndexError("population is empty")
        return self.solutions[int(rng.integers(len(self.solutions)))]
