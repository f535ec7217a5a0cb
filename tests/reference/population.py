"""Frozen list-rebuilding population (oracle for the in-place
matrices and one-draw knockout tournament of
:class:`repro.core.population.Population`).

Every replacement invalidates the objective/violation matrices and the
next ``add`` rebuilds them from the member list; ``tournament`` draws
its candidates one scalar ``rng.integers`` call at a time and knocks
them out with pairwise ``constrained_compare``.

Borg's fixed-size population with steady-state replacement.

Replacement rule (Hadka & Reed 2012): an offspring that dominates one or
more population members replaces one of those members at random; an
offspring dominated by any member is rejected; an offspring mutually
nondominated with the whole population replaces a random member.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.core.dominance import constrained_compare
from repro.core.solution import Solution

__all__ = ["Population"]


class Population:
    """Unordered population with vectorised dominance bookkeeping."""

    def __init__(self, solutions: Optional[Sequence[Solution]] = None) -> None:
        self.solutions: list[Solution] = list(solutions or [])
        self._objectives: Optional[np.ndarray] = None
        self._violations: Optional[np.ndarray] = None

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __getitem__(self, index: int) -> Solution:
        return self.solutions[index]

    def clear(self) -> None:
        self.solutions = []
        self._invalidate()

    def append(self, solution: Solution) -> None:
        """Add without replacement (used while filling after a restart)."""
        self.solutions.append(solution)
        self._invalidate()

    # -- cached matrices -----------------------------------------------------
    def _invalidate(self) -> None:
        self._objectives = None
        self._violations = None

    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        if self._objectives is None:
            self._objectives = np.array(
                [s.objectives for s in self.solutions], dtype=float
            )
            self._violations = np.array(
                [s.constraint_violation for s in self.solutions], dtype=float
            )
        return self._objectives, self._violations

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
        # Pareto-dominates.
        better_violation = V < vo
        worse_violation = V > vo
        equal_violation = ~better_violation & ~worse_violation

        pareto_dominates_off = (
            np.all(F <= fo, axis=1) & np.any(F < fo, axis=1) & equal_violation
        )
        dominates_offspring = better_violation | pareto_dominates_off

        pareto_dominated_by_off = (
            np.all(F >= fo, axis=1) & np.any(F > fo, axis=1) & equal_violation
        )
        dominated_by_offspring = worse_violation | pareto_dominated_by_off

        dominated_idx = np.flatnonzero(dominated_by_offspring)
        if dominated_idx.size:
            victim = int(rng.choice(dominated_idx))
            self.solutions[victim] = offspring
            self._invalidate()
            return True
        if np.any(dominates_offspring):
            return False
        victim = int(rng.integers(len(self.solutions)))
        self.solutions[victim] = offspring
        self._invalidate()
        return True

    # -- selection -------------------------------------------------------------
    def tournament(self, size: int, rng: np.random.Generator) -> Solution:
        """Tournament selection with constrained-Pareto comparisons.

        ``size`` candidates are drawn with replacement; the winner is a
        candidate not beaten by any other drawn candidate (ties broken
        by draw order, matching Borg's pairwise knockout).
        """
        if not self.solutions:
            raise IndexError("population is empty")
        size = max(1, min(size, len(self.solutions)))
        winner = self.solutions[int(rng.integers(len(self.solutions)))]
        for _ in range(size - 1):
            challenger = self.solutions[int(rng.integers(len(self.solutions)))]
            if constrained_compare(challenger, winner) < 0:
                winner = challenger
        return winner

    def sample(self, rng: np.random.Generator) -> Solution:
        """Uniformly random member."""
        if not self.solutions:
            raise IndexError("population is empty")
        return self.solutions[int(rng.integers(len(self.solutions)))]

