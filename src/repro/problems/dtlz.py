"""The DTLZ scalable test suite (Deb, Thiele, Laumanns & Zitzler 2002).

DTLZ2 with five objectives is the paper's "easy" problem: every decision
variable is separable, so coordinate-wise operators make steady
progress.  DTLZ1/3/4 are provided for the wider test suite and the
examples.

All problems use ``nvars = nobjs + k - 1`` with the customary
``k = 5`` (DTLZ1) or ``k = 10`` (DTLZ2-4) distance variables, decision
space ``[0, 1]^nvars``, and minimised objectives.
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = ["DTLZ1", "DTLZ2", "DTLZ3", "DTLZ4"]


class _DTLZ(Problem):
    """Shared structure of the DTLZ family."""

    default_k = 10

    def __init__(self, nobjs: int = 5, nvars: int | None = None) -> None:
        if nobjs < 2:
            raise ValueError("DTLZ problems need at least 2 objectives")
        if nvars is None:
            nvars = nobjs + self.default_k - 1
        if nvars < nobjs:
            raise ValueError(
                f"nvars ({nvars}) must be >= nobjs ({nobjs})"
            )
        super().__init__(nvars, nobjs, name=type(self).__name__)
        #: Number of distance variables (the tail of the vector).
        self.k = nvars - nobjs + 1

    def default_epsilons(self) -> np.ndarray:
        # Resolution used in the Borg diagnostic studies for many-
        # objective DTLZ instances.
        return np.full(self.nobjs, 0.06 if self.nobjs >= 4 else 0.01)

    def _position_distance_batch(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        m = self.nobjs
        return X[:, : m - 1], X[:, m - 1 :]


def _front_products(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The DTLZ front's per-row products: column ``j`` is the product of
    ``a[:, : m - 1 - j]``, times ``b[:, m - 1 - j]`` when ``j > 0``.
    One running product of ``a`` gives every column, multiplied in the
    same left-to-right order as a per-column product."""
    P = np.empty((a.shape[0], m))
    P[:, -1] = 1.0
    np.multiply.accumulate(a, axis=1, out=P[:, -2::-1])
    P[:, 1:] *= b[:, ::-1]
    return P


def _spherical_objectives_batch(
    theta: np.ndarray, g: np.ndarray, m: int
) -> np.ndarray:
    """DTLZ2/3/4 shape, per row: products of cosines with a trailing
    sine."""
    angle = theta * np.pi / 2.0
    P = _front_products(np.cos(angle), np.sin(angle), m)
    return (1.0 + g)[:, None] * P


class DTLZ1(_DTLZ):
    """Linear Pareto front (hyperplane sum f = 0.5), multimodal g."""

    default_k = 5

    def _evaluate_batch(self, X: np.ndarray):
        pos, dist = self._position_distance_batch(X)
        m = self.nobjs
        g = 100.0 * (
            self.k
            + np.sum(
                (dist - 0.5) ** 2 - np.cos(20.0 * np.pi * (dist - 0.5)),
                axis=1,
            )
        )
        return (0.5 * (1.0 + g))[:, None] * _front_products(pos, 1.0 - pos, m), None


class DTLZ2(_DTLZ):
    """Spherical Pareto front (unit hypersphere octant); unimodal g.

    The paper's easy benchmark, run with five objectives.
    """

    def _evaluate_batch(self, X: np.ndarray):
        pos, dist = self._position_distance_batch(X)
        g = np.sum((dist - 0.5) ** 2, axis=1)
        return _spherical_objectives_batch(pos, g, self.nobjs), None


class DTLZ3(_DTLZ):
    """DTLZ2's sphere with DTLZ1's highly multimodal distance function."""

    def _evaluate_batch(self, X: np.ndarray):
        pos, dist = self._position_distance_batch(X)
        g = 100.0 * (
            self.k
            + np.sum(
                (dist - 0.5) ** 2 - np.cos(20.0 * np.pi * (dist - 0.5)),
                axis=1,
            )
        )
        return _spherical_objectives_batch(pos, g, self.nobjs), None


class DTLZ4(_DTLZ):
    """DTLZ2 with biased position variables (x^alpha, alpha=100)."""

    def __init__(self, nobjs: int = 5, nvars: int | None = None, alpha: float = 100.0) -> None:
        super().__init__(nobjs, nvars)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def _evaluate_batch(self, X: np.ndarray):
        pos, dist = self._position_distance_batch(X)
        g = np.sum((dist - 0.5) ** 2, axis=1)
        return _spherical_objectives_batch(pos**self.alpha, g, self.nobjs), None
