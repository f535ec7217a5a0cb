"""The ZDT bi-objective suite (Zitzler, Deb & Thiele 2000).

Two-objective problems with closed-form Pareto fronts -- ideal fodder
for exact-hypervolume and indicator unit tests, and for cheap examples.
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = ["ZDT1", "ZDT2", "ZDT3", "ZDT4", "ZDT6"]


class _ZDT(Problem):
    def __init__(self, nvars: int, lower=None, upper=None) -> None:
        super().__init__(nvars, 2, lower=lower, upper=upper, name=type(self).__name__)

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)


class ZDT1(_ZDT):
    """Convex front: f2 = 1 - sqrt(f1)."""

    def __init__(self, nvars: int = 30) -> None:
        super().__init__(nvars)

    def _evaluate_batch(self, X: np.ndarray):
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        f1 = X[:, 0]
        return np.stack([f1, g * (1.0 - np.sqrt(f1 / g))], axis=1), None


class ZDT2(_ZDT):
    """Concave front: f2 = 1 - f1^2."""

    def __init__(self, nvars: int = 30) -> None:
        super().__init__(nvars)

    def _evaluate_batch(self, X: np.ndarray):
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        f1 = X[:, 0]
        return np.stack([f1, g * (1.0 - (f1 / g) ** 2)], axis=1), None


class ZDT3(_ZDT):
    """Disconnected front (sinusoidal gaps)."""

    def __init__(self, nvars: int = 30) -> None:
        super().__init__(nvars)

    def _evaluate_batch(self, X: np.ndarray):
        g = 1.0 + 9.0 * np.mean(X[:, 1:], axis=1)
        f1 = X[:, 0]
        h = 1.0 - np.sqrt(f1 / g) - (f1 / g) * np.sin(10.0 * np.pi * f1)
        return np.stack([f1, g * h], axis=1), None


class ZDT4(_ZDT):
    """Highly multimodal g (Rastrigin-like); 21^9 local fronts."""

    def __init__(self, nvars: int = 10) -> None:
        lower = np.full(nvars, -5.0)
        upper = np.full(nvars, 5.0)
        lower[0], upper[0] = 0.0, 1.0
        super().__init__(nvars, lower=lower, upper=upper)

    def _evaluate_batch(self, X: np.ndarray):
        tail = X[:, 1:]
        g = (
            1.0
            + 10.0 * tail.shape[1]
            + np.sum(tail**2 - 10.0 * np.cos(4.0 * np.pi * tail), axis=1)
        )
        f1 = X[:, 0]
        return np.stack([f1, g * (1.0 - np.sqrt(f1 / g))], axis=1), None


class ZDT6(_ZDT):
    """Nonuniformly distributed front with biased density."""

    def __init__(self, nvars: int = 10) -> None:
        super().__init__(nvars)

    # np.power (not the ** operator): np.float64.__pow__ rounds
    # differently from the power ufunc, and the kernel must match the
    # scalar reference bit for bit.
    def _evaluate_batch(self, X: np.ndarray):
        x0 = X[:, 0]
        f1 = 1.0 - np.exp(-4.0 * x0) * np.power(np.sin(6.0 * np.pi * x0), 6)
        g = 1.0 + 9.0 * np.power(np.mean(X[:, 1:], axis=1), 0.25)
        return np.stack([f1, g * (1.0 - (f1 / g) ** 2)], axis=1), None
