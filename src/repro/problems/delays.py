"""Controlled evaluation delays (paper §V).

The analytic test problems evaluate in under a microsecond, far too
fast to exercise master-slave scaling, so the paper injects controlled
delays into TF.  :class:`TimedProblem` attaches a delay distribution to
any problem:

* virtual backends call :meth:`TimedProblem.sample_evaluation_time` and
  advance a simulated clock (no real waiting -- this is how the
  full Ranger-scale grid stays tractable on one machine);
* real backends (threads/processes/MPI) may pass ``real_delay=True`` to
  actually sleep, reproducing wall-clock behaviour for demos.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.solution import Solution
from ..stats.distributions import Distribution, TruncatedNormal
from .base import Problem

__all__ = ["TimedProblem"]


class TimedProblem(Problem):
    """Wrap ``inner`` with a stochastic evaluation-time model.

    Parameters
    ----------
    inner:
        The wrapped problem.
    delay:
        Evaluation-time distribution, or a float mean (which selects
        the paper's truncated normal with ``cv``).
    cv:
        Coefficient of variation when ``delay`` is a float (paper: 0.1).
    real_delay:
        If True, :meth:`evaluate` actually sleeps for the sampled time.
    seed:
        Seed of the delay-sampling stream (independent of the
        algorithm's stream so timing noise never perturbs search).
    """

    def __init__(
        self,
        inner: Problem,
        delay: Distribution | float,
        cv: float = 0.1,
        real_delay: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(
            inner.nvars,
            inner.nobjs,
            lower=inner.lower,
            upper=inner.upper,
            nconstraints=inner.nconstraints,
            name=f"Timed[{inner.name}]",
        )
        self.inner = inner
        if isinstance(delay, (int, float)):
            delay = TruncatedNormal.from_mean_cv(float(delay), cv)
        self.delay = delay
        self.real_delay = real_delay
        self._rng = np.random.default_rng(seed)
        #: Sampled evaluation time of the most recent evaluation.
        self.last_evaluation_time = 0.0
        #: Sum of all sampled evaluation times (virtual seconds).
        self.total_evaluation_time = 0.0

    @property
    def mean_evaluation_time(self) -> float:
        return self.delay.mean

    def sample_evaluation_time(self, rng: Optional[np.random.Generator] = None) -> float:
        """Draw one TF value (from the wrapper's own stream by default)."""
        return float(self.delay.sample(rng if rng is not None else self._rng))

    def _evaluate_batch(self, X: np.ndarray):
        return self.inner._evaluate_batch(X)

    def evaluate(self, solution: Solution) -> Solution:
        dt = self.sample_evaluation_time()
        self.last_evaluation_time = dt
        self.total_evaluation_time += dt
        if self.real_delay:
            time.sleep(dt)
        return super().evaluate(solution)

    def evaluate_batch(self, X: np.ndarray):
        """Batched evaluation: one delay sample per solution, in the
        same stream order as ``n`` scalar :meth:`evaluate` calls."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0] if X.ndim == 2 else 0
        total = 0.0
        for _ in range(n):
            dt = self.sample_evaluation_time()
            self.last_evaluation_time = dt
            # Accumulate per sample so the running total rounds exactly
            # as n scalar evaluate() calls would.
            self.total_evaluation_time += dt
            total += dt
        if self.real_delay and total > 0.0:
            time.sleep(total)
        return super().evaluate_batch(X)

    def default_epsilons(self) -> np.ndarray:
        return self.inner.default_epsilons()
