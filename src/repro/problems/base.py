"""Problem interface for the test suite.

All problems minimise every objective over a box-constrained real
decision space.  Constraints, when present, are reported as violation
magnitudes (0 = satisfied).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from ..core.solution import Solution

__all__ = ["Problem", "FunctionProblem"]


class Problem(ABC):
    """A box-constrained multiobjective minimisation problem.

    Subclasses implement :meth:`_evaluate_batch` mapping a matrix of
    decision vectors to objective (and optional constraint) matrices.
    The public :meth:`evaluate` fills one :class:`Solution` in place,
    :meth:`evaluate_batch` a whole matrix; both count function
    evaluations.
    """

    def __init__(
        self,
        nvars: int,
        nobjs: int,
        lower: Optional[Sequence[float]] = None,
        upper: Optional[Sequence[float]] = None,
        nconstraints: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if nvars < 1 or nobjs < 1:
            raise ValueError("need at least one variable and one objective")
        self.nvars = nvars
        self.nobjs = nobjs
        self.nconstraints = nconstraints
        self.lower = (
            np.zeros(nvars) if lower is None else np.asarray(lower, dtype=float)
        )
        self.upper = (
            np.ones(nvars) if upper is None else np.asarray(upper, dtype=float)
        )
        if self.lower.shape != (nvars,) or self.upper.shape != (nvars,):
            raise ValueError("bounds must have shape (nvars,)")
        if np.any(self.lower >= self.upper):
            raise ValueError("each lower bound must be below its upper bound")
        self.name = name or type(self).__name__
        #: Number of completed evaluations (monotone counter).
        self.evaluations = 0

    # -- evaluation -----------------------------------------------------------
    @abstractmethod
    def _evaluate_batch(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Objectives (and constraints) for a batch of decision vectors.

        ``X`` has shape ``(n, nvars)``; returns ``(F, C)`` where ``F``
        is ``(n, nobjs)`` and ``C`` is ``(n, nconstraints)`` or None.
        This is the problem's only kernel: :meth:`evaluate` runs it on a
        one-row block, :meth:`evaluate_batch` on the whole matrix.
        """

    def evaluate_batch(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Evaluate ``n`` decision vectors at once.

        Returns ``(F, C)``: the ``(n, nobjs)`` objective matrix and the
        ``(n, nconstraints)`` constraint-violation matrix (None when the
        problem is unconstrained).  Counts ``n`` function evaluations.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ValueError(
                f"expected shape (n, {self.nvars}), got {X.shape}"
            )
        F, C = self._evaluate_batch(X)
        F = np.asarray(F, dtype=float)
        if F.shape != (X.shape[0], self.nobjs):
            raise ValueError(
                f"{self.name} returned batch objectives of shape {F.shape}, "
                f"expected ({X.shape[0]}, {self.nobjs})"
            )
        if C is not None:
            C = np.asarray(C, dtype=float)
        self.evaluations += X.shape[0]
        return F, C

    def evaluate_solutions(self, solutions: Sequence[Solution]) -> None:
        """Evaluate a batch of :class:`Solution` objects in place."""
        if not solutions:
            return
        X = np.stack([s.variables for s in solutions])
        F, C = self.evaluate_batch(X)
        for i, solution in enumerate(solutions):
            solution.objectives = F[i].copy()
            if C is not None:
                solution.constraints = C[i].copy()

    def evaluate(self, solution: Solution) -> Solution:
        """Evaluate ``solution`` in place and return it."""
        x = solution.variables
        if x.shape != (self.nvars,):
            raise ValueError(
                f"expected {self.nvars} variables, got shape {x.shape}"
            )
        F, C = self._evaluate_batch(np.asarray(x, dtype=float)[None, :])
        solution.objectives = np.asarray(F, dtype=float)[0]
        if solution.objectives.shape != (self.nobjs,):
            raise ValueError(
                f"{self.name} returned {solution.objectives.shape} "
                f"objectives, expected ({self.nobjs},)"
            )
        if C is not None:
            solution.constraints = np.asarray(C, dtype=float)[0]
        self.evaluations += 1
        return solution

    # -- helpers --------------------------------------------------------------
    def random_solution(self, rng: np.random.Generator) -> Solution:
        """Uniformly random (unevaluated) solution within bounds."""
        x = self.lower + rng.random(self.nvars) * (self.upper - self.lower)
        return Solution(x, operator="initial")

    def random_solutions(
        self, rng: np.random.Generator, n: int
    ) -> list[Solution]:
        """``n`` uniformly random (unevaluated) solutions within bounds.

        Consumes the generator's stream exactly as ``n`` successive
        :meth:`random_solution` calls would (a C-order ``(n, nvars)``
        draw is the same sample sequence), so seeded runs are unchanged.
        """
        X = self.lower + rng.random((n, self.nvars)) * (self.upper - self.lower)
        return [Solution(x, operator="initial") for x in X]

    def default_epsilons(self) -> np.ndarray:
        """Archive resolution used when the caller does not supply one.

        A conservative 1% of the typical objective scale; problem
        subclasses override with published values where they exist.
        """
        return np.full(self.nobjs, 0.01)

    def __repr__(self) -> str:
        return (
            f"<{self.name} nvars={self.nvars} nobjs={self.nobjs} "
            f"nconstraints={self.nconstraints}>"
        )


class FunctionProblem(Problem):
    """Adapter turning a plain callable into a :class:`Problem`.

    ``function(x) -> objectives`` with optional
    ``constraint_function(x) -> violations``.  ``batch_function``, when
    given, maps an ``(n, nvars)`` matrix to ``(n, nobjs)`` objectives in
    one call; without it the rows are evaluated one ``function`` call
    at a time.
    """

    def __init__(
        self,
        function,
        nvars: int,
        nobjs: int,
        lower=None,
        upper=None,
        constraint_function=None,
        nconstraints: int = 0,
        name: Optional[str] = None,
        batch_function=None,
    ) -> None:
        super().__init__(
            nvars,
            nobjs,
            lower,
            upper,
            nconstraints=nconstraints,
            name=name or getattr(function, "__name__", "function"),
        )
        self._function = function
        self._constraint_function = constraint_function
        self._batch_function = batch_function

    def _evaluate_batch(self, X: np.ndarray):
        if self._batch_function is None:
            F = np.stack(
                [np.asarray(self._function(x), dtype=float) for x in X]
            )
        else:
            F = np.asarray(self._batch_function(X), dtype=float)
        if self._constraint_function is None:
            return F, None
        C = np.stack(
            [
                np.asarray(self._constraint_function(x), dtype=float)
                for x in X
            ]
        )
        return F, C
