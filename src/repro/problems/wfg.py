"""The WFG scalable test toolkit (Huband, Hingston, Barone & While 2006).

Nine problems built from a shared pipeline: decision variables
``z_i in [0, 2i]`` are normalised, passed through a chain of bias (b_),
shift (s_) and reduction (r_) transformations, and mapped onto shape
functions (linear / convex / concave / mixed / disconnected).  WFG
problems stress exactly the pathologies the CEC-2009 suite samples --
bias, deception, multi-modality, non-separability, degenerate fronts --
and the competition's UF13 is literally WFG1 with five objectives
(provided here as :class:`UF13`).

Every WFG problem's Pareto optima set the distance-related parameters
to ``z_i = 0.35 * 2i``; the test suite verifies front membership there
against the closed-form shape relations.
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = [
    "WFG1", "WFG2", "WFG3", "WFG4", "WFG5", "WFG6", "WFG7", "WFG8", "WFG9",
    "UF13",
]

_EPS = 1.0e-10


def _clip01(y):
    """Guard against floating drift outside [0, 1]."""
    return np.clip(y, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Transformation functions (Huband et al., Table 11)
# ---------------------------------------------------------------------------

def b_poly(y, alpha):
    """Polynomial bias: y^alpha."""
    return _clip01(np.power(np.maximum(y, 0.0), alpha))


def b_flat(y, A, B, C):
    """Flat region: value A for y in [B, C]."""
    y = np.asarray(y, dtype=float)
    out = (
        A
        + np.minimum(0.0, np.floor(y - B)) * (A * (B - y) / B)
        - np.minimum(0.0, np.floor(C - y)) * ((1.0 - A) * (y - C) / (1.0 - C))
    )
    return _clip01(out)


def b_param(y, u, A, B, C):
    """Parameter-dependent bias: y's exponent depends on u."""
    v = A - (1.0 - 2.0 * u) * np.abs(np.floor(0.5 - u) + A)
    return _clip01(np.power(np.maximum(y, 0.0), B + (C - B) * v))


def s_linear(y, A):
    """Linear shift: optimum moves from 0 to A."""
    return _clip01(np.abs(y - A) / np.abs(np.floor(A - y) + A))


def s_decept(y, A, B, C):
    """Deceptive shift: global optimum at A with deceptive basins."""
    tmp1 = np.floor(y - A + B) * (1.0 - C + (A - B) / B) / (A - B)
    tmp2 = np.floor(A + B - y) * (1.0 - C + (1.0 - A - B) / B) / (1.0 - A - B)
    return _clip01(
        1.0
        + (np.abs(y - A) - B)
        * (tmp1 + tmp2 + 1.0 / B)
    )


def s_multi(y, A, B, C):
    """Multi-modal shift: A minima, global at C."""
    tmp1 = np.abs(y - C) / (2.0 * (np.floor(C - y) + C))
    tmp2 = (4.0 * A + 2.0) * np.pi * (0.5 - tmp1)
    return _clip01(
        (1.0 + np.cos(tmp2) + 4.0 * B * tmp1**2) / (B + 2.0)
    )


def r_sum(y, w):
    """Weighted-sum reduction."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(np.dot(y, w) / w.sum())


def r_nonsep(y, A):
    """Non-separable reduction of degree A."""
    y = np.asarray(y, dtype=float)
    n = y.size
    total = 0.0
    for j in range(n):
        inner = y[j]
        for k in range(A - 1):
            inner += np.abs(y[j] - y[(j + k + 1) % n])
        total += inner
    denom = n * np.ceil(A / 2.0) * (1.0 + 2.0 * A - 2.0 * np.ceil(A / 2.0)) / A
    return float(_clip01(np.atleast_1d(total / denom))[0])


# ---------------------------------------------------------------------------
# Row-wise reductions used by the batched pipeline.  These use plain
# sum-products (never BLAS ``np.dot``, whose rounding differs between
# vector and matrix shapes), so a batch of one is bit-identical to any
# row of a larger batch.
# ---------------------------------------------------------------------------

def r_sum_rows(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted-sum reduction of each row of ``Y``."""
    w = np.asarray(w, dtype=float)
    return np.sum(Y * w, axis=1) / w.sum()


def r_mean_rows(Y: np.ndarray) -> np.ndarray:
    """Unit-weight :func:`r_sum_rows` (multiplying by 1 is exact)."""
    return np.sum(Y, axis=1) / float(Y.shape[1])


def r_nonsep_rows(Y: np.ndarray, A: int) -> np.ndarray:
    """Non-separable reduction of degree A applied to each row."""
    n = Y.shape[1]
    total = np.zeros(Y.shape[0])
    for j in range(n):
        inner = Y[:, j].copy()
        for k in range(A - 1):
            inner += np.abs(Y[:, j] - Y[:, (j + k + 1) % n])
        total += inner
    denom = n * np.ceil(A / 2.0) * (1.0 + 2.0 * A - 2.0 * np.ceil(A / 2.0)) / A
    return _clip01(total / denom)


# ---------------------------------------------------------------------------
# Shape functions (Huband et al., Table 10); x has length M-1
# ---------------------------------------------------------------------------

def shape_linear(x, m, M):
    """m-th linear shape (1-based m)."""
    out = np.prod(x[: M - m])
    if m > 1:
        out *= 1.0 - x[M - m]
    return out


def shape_convex(x, m, M):
    out = np.prod(1.0 - np.cos(x[: M - m] * np.pi / 2.0))
    if m > 1:
        out *= 1.0 - np.sin(x[M - m] * np.pi / 2.0)
    return out


def shape_concave(x, m, M):
    out = np.prod(np.sin(x[: M - m] * np.pi / 2.0))
    if m > 1:
        out *= np.cos(x[M - m] * np.pi / 2.0)
    return out


def shape_mixed(x, alpha, A):
    """Mixed convex/concave final shape."""
    tmp = 2.0 * A * np.pi
    return (
        1.0 - x[0] - np.cos(tmp * x[0] + np.pi / 2.0) / tmp
    ) ** alpha


def shape_disc(x, alpha, beta, A):
    """Disconnected final shape with A regions."""
    return 1.0 - x[0] ** alpha * np.cos(A * x[0] ** beta * np.pi) ** 2


# Row-wise shape functions: ``X`` has one length-(M-1) position row per
# batch member; each returns the m-th shape value for every row.

def shape_linear_rows(X, m, M):
    out = np.prod(X[:, : M - m], axis=1)
    if m > 1:
        out = out * (1.0 - X[:, M - m])
    return out


def shape_convex_rows(X, m, M):
    out = np.prod(1.0 - np.cos(X[:, : M - m] * np.pi / 2.0), axis=1)
    if m > 1:
        out = out * (1.0 - np.sin(X[:, M - m] * np.pi / 2.0))
    return out


def shape_concave_rows(X, m, M):
    out = np.prod(np.sin(X[:, : M - m] * np.pi / 2.0), axis=1)
    if m > 1:
        out = out * np.cos(X[:, M - m] * np.pi / 2.0)
    return out


def shape_mixed_rows(X, alpha, A):
    tmp = 2.0 * A * np.pi
    return (
        1.0 - X[:, 0] - np.cos(tmp * X[:, 0] + np.pi / 2.0) / tmp
    ) ** alpha


def shape_disc_rows(X, alpha, beta, A):
    x0 = X[:, 0]
    return 1.0 - x0**alpha * np.cos(A * x0**beta * np.pi) ** 2


# ---------------------------------------------------------------------------
# The problem family
# ---------------------------------------------------------------------------

class _WFG(Problem):
    """Shared pipeline: normalise -> transform -> shape.

    Parameters
    ----------
    nobjs:
        Objective count M.
    k:
        Position parameters (must be a multiple of M-1).
    l:
        Distance parameters.
    """

    #: Degenerate-front flag (WFG3).
    degenerate = False

    def __init__(self, nobjs: int = 3, k: int | None = None, l: int | None = None) -> None:
        if nobjs < 2:
            raise ValueError("WFG needs at least 2 objectives")
        if k is None:
            k = 2 * (nobjs - 1)
        if l is None:
            l = 20
        if k % (nobjs - 1) != 0:
            raise ValueError("k must be a multiple of nobjs - 1")
        if self._needs_even_l() and l % 2 != 0:
            raise ValueError(f"{type(self).__name__} needs an even l")
        n = k + l
        upper = 2.0 * np.arange(1, n + 1)
        super().__init__(
            n, nobjs, lower=np.zeros(n), upper=upper, name=type(self).__name__
        )
        self.k = k
        self.l = l

    @classmethod
    def _needs_even_l(cls) -> bool:
        return False

    # -- pipeline pieces shared across problems -------------------------------
    # The pipeline is batch-first: every stage maps an (n, cols) matrix
    # row-wise, and each problem's ``_evaluate_batch`` chains them.
    def _normalise(self, Z: np.ndarray) -> np.ndarray:
        return _clip01(Z / self.upper)

    def _weighted_sum_reduction(self, T: np.ndarray) -> np.ndarray:
        """Final r_sum reduction with weights w_i = 2i (WFG1's t4)."""
        M, k, n = self.nobjs, self.k, self.nvars
        out = np.empty((T.shape[0], M))
        gap = k // (M - 1)
        for m in range(1, M):
            lo, hi = (m - 1) * gap, m * gap
            out[:, m - 1] = r_sum_rows(
                T[:, lo:hi], 2.0 * np.arange(lo + 1, hi + 1)
            )
        out[:, M - 1] = r_sum_rows(T[:, k:n], 2.0 * np.arange(k + 1, n + 1))
        return out

    def _uniform_sum_reduction(self, T: np.ndarray) -> np.ndarray:
        """r_sum with unit weights (most problems' final reduction)."""
        M, k, n = self.nobjs, self.k, self.nvars
        out = np.empty((T.shape[0], M))
        gap = k // (M - 1)
        for m in range(1, M):
            lo, hi = (m - 1) * gap, m * gap
            out[:, m - 1] = r_mean_rows(T[:, lo:hi])
        out[:, M - 1] = r_mean_rows(T[:, k:n])
        return out

    def _even_pair_reduction(self, T: np.ndarray) -> np.ndarray:
        """WFG2/WFG3 t2: non-separable pairing of the distance params."""
        M, k, n = self.nobjs, self.k, self.nvars
        half = (n - k) // 2
        out = np.empty((T.shape[0], k + half))
        out[:, :k] = T[:, :k]
        for i in range(half):
            pair = T[:, k + 2 * i : k + 2 * i + 2]
            out[:, k + i] = r_nonsep_rows(pair, 2)
        return out

    def _reduce_after_pairing(self, T: np.ndarray) -> np.ndarray:
        M, k = self.nobjs, self.k
        out = np.empty((T.shape[0], M))
        gap = k // (M - 1)
        for m in range(1, M):
            lo, hi = (m - 1) * gap, m * gap
            out[:, m - 1] = r_mean_rows(T[:, lo:hi])
        out[:, M - 1] = r_mean_rows(T[:, k:])
        return out

    def _objectives_from(self, T: np.ndarray, shapes) -> np.ndarray:
        """Apply degeneracy constants A, compute x, then f = D x_M + S h."""
        M = self.nobjs
        if self.degenerate:
            A = np.zeros(M - 1)
            A[0] = 1.0
        else:
            A = np.ones(M - 1)
        tM = T[:, M - 1]
        Xp = np.maximum(tM[:, None], A) * (T[:, : M - 1] - 0.5) + 0.5
        S = 2.0 * np.arange(1, M + 1)
        H = np.stack([shapes(Xp, m) for m in range(1, M + 1)], axis=1)
        return tM[:, None] + S * H

    def default_epsilons(self) -> np.ndarray:
        # Objectives span [0, 2m]; 1% of the largest scale.
        return np.full(self.nobjs, 0.02 * self.nobjs)

    def optimal_solution(self, position: np.ndarray | None = None) -> np.ndarray:
        """A Pareto-optimal decision vector: distance params at
        ``0.35 * 2i`` and the given (normalised) position params."""
        rngless = np.full(self.k, 0.5) if position is None else np.asarray(position)
        z = np.empty(self.nvars)
        z[: self.k] = rngless * self.upper[: self.k]
        z[self.k :] = 0.35 * self.upper[self.k :]
        return z


class WFG1(_WFG):
    """Biased, flat-region, mixed-front problem (= CEC-2009 UF13 at M=5).

    Note: WFG1's optimum requires the *biased* distance value 0.35 like
    the others, but its extreme polynomial bias (alpha = 0.02) makes the
    neighbourhood of the optimum vanishingly thin -- it is the suite's
    hardest problem for real optimisers.
    """

    def _evaluate_batch(self, Z: np.ndarray):
        k, M = self.k, self.nobjs
        Y = self._normalise(Z)
        # t1: shift distance params.
        T = Y.copy()
        T[:, k:] = s_linear(Y[:, k:], 0.35)
        # t2: flat region on distance params.
        T[:, k:] = b_flat(T[:, k:], 0.8, 0.75, 0.85)
        # t3: polynomial bias everywhere.
        T = b_poly(T, 0.02)
        # t4: weighted-sum reduction to M params.
        T = self._weighted_sum_reduction(T)

        def shapes(X, m):
            if m < M:
                return shape_convex_rows(X, m, M)
            return shape_mixed_rows(X, alpha=1.0, A=5.0)

        return self._objectives_from(T, shapes), None


class WFG2(_WFG):
    """Non-separable, disconnected front."""

    @classmethod
    def _needs_even_l(cls) -> bool:
        return True

    def _evaluate_batch(self, Z: np.ndarray):
        k, M = self.k, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        T[:, k:] = s_linear(Y[:, k:], 0.35)
        T = self._even_pair_reduction(T)
        T = self._reduce_after_pairing(T)

        def shapes(X, m):
            if m < M:
                return shape_convex_rows(X, m, M)
            return shape_disc_rows(X, alpha=1.0, beta=1.0, A=5.0)

        return self._objectives_from(T, shapes), None


class WFG3(_WFG):
    """Degenerate (one-dimensional) linear front."""

    degenerate = True

    @classmethod
    def _needs_even_l(cls) -> bool:
        return True

    def _evaluate_batch(self, Z: np.ndarray):
        k, M = self.k, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        T[:, k:] = s_linear(Y[:, k:], 0.35)
        T = self._even_pair_reduction(T)
        T = self._reduce_after_pairing(T)

        def shapes(X, m):
            return shape_linear_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG4(_WFG):
    """Highly multi-modal, concave front."""

    def _evaluate_batch(self, Z: np.ndarray):
        M = self.nobjs
        Y = self._normalise(Z)
        T = s_multi(Y, 30.0, 10.0, 0.35)
        T = self._uniform_sum_reduction(T)

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG5(_WFG):
    """Deceptive, concave front."""

    def _evaluate_batch(self, Z: np.ndarray):
        M = self.nobjs
        Y = self._normalise(Z)
        T = s_decept(Y, 0.35, 0.001, 0.05)
        T = self._uniform_sum_reduction(T)

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG6(_WFG):
    """Non-separable reduction, concave front."""

    def _evaluate_batch(self, Z: np.ndarray):
        k, n, M = self.k, self.nvars, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        T[:, k:] = s_linear(Y[:, k:], 0.35)
        out = np.empty((Z.shape[0], M))
        gap = k // (M - 1)
        for m in range(1, M):
            lo, hi = (m - 1) * gap, m * gap
            out[:, m - 1] = r_nonsep_rows(T[:, lo:hi], gap)
        out[:, M - 1] = r_nonsep_rows(T[:, k:n], n - k)
        T = out

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG7(_WFG):
    """Parameter-dependent bias on position params, concave front."""

    def _evaluate_batch(self, Z: np.ndarray):
        k, M = self.k, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        for i in range(k):
            u = r_mean_rows(Y[:, i + 1 :])
            T[:, i] = b_param(Y[:, i], u, 0.98 / 49.98, 0.02, 50.0)
        T[:, k:] = s_linear(T[:, k:], 0.35)
        T = self._uniform_sum_reduction(T)

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG8(_WFG):
    """Parameter-dependent bias on *distance* params: non-separable.

    WFG8's optimal distance values are position-dependent: each must
    invert the b_param bias given the mean of all preceding normalised
    parameters (Huband et al. §6.4); :meth:`optimal_solution` performs
    that forward recursion.
    """

    def optimal_solution(self, position: np.ndarray | None = None) -> np.ndarray:
        pos = np.full(self.k, 0.5) if position is None else np.asarray(position)
        y = np.empty(self.nvars)
        y[: self.k] = pos
        for i in range(self.k, self.nvars):
            u = r_sum(y[:i], np.ones(i))
            v = 0.98 / 49.98 - (1.0 - 2.0 * u) * np.abs(
                np.floor(0.5 - u) + 0.98 / 49.98
            )
            exponent = 0.02 + (50.0 - 0.02) * v
            y[i] = 0.35 ** (1.0 / exponent)
        return y * self.upper

    def _evaluate_batch(self, Z: np.ndarray):
        k, n, M = self.k, self.nvars, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        for i in range(k, n):
            u = r_mean_rows(Y[:, :i])
            T[:, i] = b_param(Y[:, i], u, 0.98 / 49.98, 0.02, 50.0)
        T[:, k:] = s_linear(T[:, k:], 0.35)
        T = self._uniform_sum_reduction(T)

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class WFG9(_WFG):
    """Bias + deception + multi-modality, fully non-separable.

    Like WFG8, the optimal distance values must invert the b_param
    bias -- here the exponent for parameter i depends on the mean of
    the *following* parameters, so the recursion runs backward from the
    last distance parameter (which is unbiased and stays at 0.35).
    """

    def optimal_solution(self, position: np.ndarray | None = None) -> np.ndarray:
        pos = np.full(self.k, 0.5) if position is None else np.asarray(position)
        n, k = self.nvars, self.k
        y = np.empty(n)
        y[:k] = pos
        y[n - 1] = 0.35
        for i in range(n - 2, k - 1, -1):
            u = r_sum(y[i + 1 :], np.ones(n - i - 1))
            v = 0.98 / 49.98 - (1.0 - 2.0 * u) * np.abs(
                np.floor(0.5 - u) + 0.98 / 49.98
            )
            exponent = 0.02 + (50.0 - 0.02) * v
            y[i] = 0.35 ** (1.0 / exponent)
        return y * self.upper

    def _evaluate_batch(self, Z: np.ndarray):
        k, n, M = self.k, self.nvars, self.nobjs
        Y = self._normalise(Z)
        T = Y.copy()
        for i in range(n - 1):
            u = r_mean_rows(Y[:, i + 1 :])
            T[:, i] = b_param(Y[:, i], u, 0.98 / 49.98, 0.02, 50.0)
        T2 = T.copy()
        T2[:, :k] = s_decept(T[:, :k], 0.35, 0.001, 0.05)
        T2[:, k:] = s_multi(T[:, k:], 30.0, 95.0, 0.35)
        out = np.empty((Z.shape[0], M))
        gap = k // (M - 1)
        for m in range(1, M):
            lo, hi = (m - 1) * gap, m * gap
            out[:, m - 1] = r_nonsep_rows(T2[:, lo:hi], gap)
        out[:, M - 1] = r_nonsep_rows(T2[:, k:n], n - k)
        T = out

        def shapes(X, m):
            return shape_concave_rows(X, m, M)

        return self._objectives_from(T, shapes), None


class UF13(WFG1):
    """CEC-2009 UF13 = WFG1 with five objectives and 30 variables
    (8 position + 22 distance parameters)."""

    def __init__(self) -> None:
        super().__init__(nobjs=5, k=8, l=22)
        self.name = "UF13"
