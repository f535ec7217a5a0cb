"""A water-resources planning problem (shallow-lake eutrophication).

Borg's home domain is water-resources engineering (the paper's
motivating applications include hydrologic model calibration and
reservoir planning).  This is the classic shallow-lake pollution
control model (Carpenter et al. 1999) in its deterministic form: a town
chooses a phosphorus discharge policy over a planning horizon; the lake
accumulates phosphorus non-linearly and can tip irreversibly into a
eutrophic state.

Objectives (all minimised):

0. negative economic benefit (discounted discharge utility),
1. peak phosphorus concentration,
2. negative inertia (fraction of steps without abrupt policy cuts),
3. negative reliability (fraction of steps below the critical threshold).
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = ["LakeProblem"]


class LakeProblem(Problem):
    """Deterministic shallow-lake management, one decision per time step.

    Parameters
    ----------
    horizon:
        Planning horizon in (annual) time steps = number of decision
        variables.
    b:
        Phosphorus loss (outflow/sedimentation) rate; b < 0.5 admits an
        irreversible eutrophic equilibrium.
    q:
        Recycling steepness of the sigmoid internal loading term.
    alpha:
        Utility per unit discharge.
    delta:
        Discount factor per step.
    """

    def __init__(
        self,
        horizon: int = 20,
        b: float = 0.42,
        q: float = 2.0,
        alpha: float = 0.4,
        delta: float = 0.98,
        critical_p: float = 0.5,
        inertia_limit: float = 0.02,
    ) -> None:
        super().__init__(
            nvars=horizon,
            nobjs=4,
            lower=np.zeros(horizon),
            upper=np.full(horizon, 0.1),
            name="LakeProblem",
        )
        self.b = b
        self.q = q
        self.alpha = alpha
        self.delta = delta
        self.critical_p = critical_p
        self.inertia_limit = inertia_limit

    def simulate(self, decisions: np.ndarray) -> np.ndarray:
        """Lake phosphorus trajectory under a discharge policy."""
        return self.simulate_batch(np.asarray(decisions)[None, :])[0]

    def simulate_batch(self, decisions: np.ndarray) -> np.ndarray:
        """One phosphorus trajectory per policy row.

        Vectorized across policies; the time recurrence stays serial.
        ``np.power`` (not ``**``): ``np.float64.__pow__`` rounds
        differently from the power ufunc, and each row must match the
        scalar recurrence kept as the test oracle bit for bit.
        """
        n, horizon = decisions.shape
        x = np.zeros((n, horizon + 1))
        for t in range(horizon):
            pq = np.power(x[:, t], self.q)
            recycling = pq / (1.0 + pq)
            x[:, t + 1] = x[:, t] + decisions[:, t] + recycling - self.b * x[:, t]
        return x

    def _evaluate_batch(self, A: np.ndarray):
        x = self.simulate_batch(A)
        t = np.arange(A.shape[1])
        benefit = np.sum(self.alpha * A * self.delta**t, axis=1)
        peak_p = np.max(x, axis=1)
        cuts = np.diff(A, axis=1, prepend=A[:, :1])
        inertia = np.mean(cuts >= -self.inertia_limit, axis=1)
        reliability = np.mean(x[:, 1:] < self.critical_p, axis=1)
        return np.stack([-benefit, peak_p, -inertia, -reliability], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.array([0.01, 0.01, 0.05, 0.05])
