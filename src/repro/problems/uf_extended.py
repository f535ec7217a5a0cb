"""CEC-2009 unconstrained instances UF3-UF10 (Zhang et al., CES-487).

These complete the competition's unconstrained suite alongside UF1/UF2
(in :mod:`repro.problems.uf`) and UF11/UF12 (rotated DTLZ variants).
UF3-UF7 are bi-objective, UF8-UF10 tri-objective; all have closed-form
definitions and known Pareto fronts, transcribed from the competition
technical report.  Index convention: j runs from 2 to n (1-based), J1 =
odd j, J2 = even j for 2-objective problems; for 3-objective problems
J1/J2/J3 partition j in {3..n} by j mod 3.
"""

from __future__ import annotations

import numpy as np

from .base import Problem

__all__ = ["UF3", "UF4", "UF5", "UF6", "UF7", "UF8", "UF9", "UF10"]


def _split_2obj(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j indices (2..n) and the odd/even masks J1, J2."""
    j = np.arange(2, n + 1)
    return j, j % 2 == 1, j % 2 == 0


def _masked_rows(Y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Column subset of ``Y`` with C-contiguous rows.

    Boolean column selection yields an F-ordered array whose axis-1
    reductions take a sequential (not pairwise) path, which would break
    bit parity with the scalar reference's per-row sums.
    """
    return np.ascontiguousarray(Y[:, mask])


def _mean_sq_rows(Y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(2 / |J|) * the row sums of squares over the masked columns."""
    count = max(1, int(mask.sum()))
    return (2.0 / count) * np.sum(_masked_rows(Y, mask) ** 2, axis=1)


class UF3(Problem):
    """Bi-objective; decision space [0,1]^n; nonlinear x1-dependent
    linkage; front f2 = 1 - sqrt(f1)."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 3:
            raise ValueError("UF3 needs at least 3 variables")
        super().__init__(nvars, 2, lower=np.zeros(nvars), upper=np.ones(nvars), name="UF3")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2 = _split_2obj(n)
        x1 = X[:, 0]
        expo = 0.5 * (1.0 + 3.0 * (j - 2.0) / (n - 2.0))
        Y = X[:, 1:] - x1[:, None] ** expo

        def term(mask):
            count = max(1, int(mask.sum()))
            Yj = _masked_rows(Y, mask)
            cos_part = np.prod(
                np.cos(20.0 * Yj * np.pi / np.sqrt(j[mask])), axis=1
            )
            return (2.0 / count) * (
                4.0 * np.sum(Yj**2, axis=1) - 2.0 * cos_part + 2.0
            )

        f1 = x1 + term(J1)
        f2 = 1.0 - np.sqrt(x1) + term(J2)
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)


class UF4(Problem):
    """Bi-objective; concave front f2 = 1 - f1^2; |y|-based h."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 3:
            raise ValueError("UF4 needs at least 3 variables")
        lower = np.full(nvars, -2.0)
        upper = np.full(nvars, 2.0)
        lower[0], upper[0] = 0.0, 1.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF4")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2 = _split_2obj(n)
        x1 = X[:, 0]
        Y = X[:, 1:] - np.sin(6.0 * np.pi * x1[:, None] + j * np.pi / n)
        H = np.abs(Y) / (1.0 + np.exp(2.0 * np.abs(Y)))

        def term(mask):
            count = max(1, int(mask.sum()))
            return (2.0 / count) * np.sum(_masked_rows(H, mask), axis=1)

        f1 = x1 + term(J1)
        f2 = 1.0 - x1**2 + term(J2)
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)


class UF5(Problem):
    """Bi-objective; 2N+1 point discrete front (hardest UF shape)."""

    def __init__(self, nvars: int = 30, N: int = 10, eps: float = 0.1) -> None:
        if nvars < 3:
            raise ValueError("UF5 needs at least 3 variables")
        lower = np.full(nvars, -1.0)
        upper = np.ones(nvars)
        lower[0] = 0.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF5")
        self.N = N
        self.eps = eps

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2 = _split_2obj(n)
        x1 = X[:, 0]
        Y = X[:, 1:] - np.sin(6.0 * np.pi * x1[:, None] + j * np.pi / n)
        H = 2.0 * Y**2 - np.cos(4.0 * np.pi * Y) + 1.0
        bump = (0.5 / self.N + self.eps) * np.abs(
            np.sin(2.0 * self.N * np.pi * x1)
        )

        def term(mask):
            count = max(1, int(mask.sum()))
            return (2.0 / count) * np.sum(_masked_rows(H, mask), axis=1)

        f1 = x1 + bump + term(J1)
        f2 = 1.0 - x1 + bump + term(J2)
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.01)


class UF6(Problem):
    """Bi-objective; disconnected front with N gaps."""

    def __init__(self, nvars: int = 30, N: int = 2, eps: float = 0.1) -> None:
        if nvars < 3:
            raise ValueError("UF6 needs at least 3 variables")
        lower = np.full(nvars, -1.0)
        upper = np.ones(nvars)
        lower[0] = 0.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF6")
        self.N = N
        self.eps = eps

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2 = _split_2obj(n)
        x1 = X[:, 0]
        Y = X[:, 1:] - np.sin(6.0 * np.pi * x1[:, None] + j * np.pi / n)
        bump = np.maximum(
            0.0,
            2.0 * (0.5 / self.N + self.eps) * np.sin(2.0 * self.N * np.pi * x1),
        )

        def term(mask):
            count = max(1, int(mask.sum()))
            Yj = _masked_rows(Y, mask)
            cos_part = np.prod(
                np.cos(20.0 * Yj * np.pi / np.sqrt(j[mask])), axis=1
            )
            return (2.0 / count) * (
                4.0 * np.sum(Yj**2, axis=1) - 2.0 * cos_part + 2.0
            )

        f1 = x1 + bump + term(J1)
        f2 = 1.0 - x1 + bump + term(J2)
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.01)


class UF7(Problem):
    """Bi-objective; linear front f2 = 1 - f1 via the x1^0.2 warp."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 3:
            raise ValueError("UF7 needs at least 3 variables")
        lower = np.full(nvars, -1.0)
        upper = np.ones(nvars)
        lower[0] = 0.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF7")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2 = _split_2obj(n)
        x1 = X[:, 0]
        Y = X[:, 1:] - np.sin(6.0 * np.pi * x1[:, None] + j * np.pi / n)
        root = np.power(x1, 0.2)
        f1 = root + _mean_sq_rows(Y, J1)
        f2 = 1.0 - root + _mean_sq_rows(Y, J2)
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)


def _split_3obj(n: int):
    """j indices (3..n) with the three residue-class masks of CES-487:
    J1: j ≡ 1 (mod 3), J2: j ≡ 2 (mod 3), J3: j ≡ 0 (mod 3)."""
    j = np.arange(3, n + 1)
    return j, j % 3 == 1, j % 3 == 2, j % 3 == 0


class UF8(Problem):
    """Tri-objective; spherical front (sum f^2 = 1)."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 5:
            raise ValueError("UF8 needs at least 5 variables")
        lower = np.full(nvars, -2.0)
        upper = np.full(nvars, 2.0)
        lower[:2], upper[:2] = 0.0, 1.0
        super().__init__(nvars, 3, lower=lower, upper=upper, name="UF8")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2, J3 = _split_3obj(n)
        x1, x2 = X[:, 0], X[:, 1]
        Y = X[:, 2:] - 2.0 * x2[:, None] * np.sin(
            2.0 * np.pi * x1[:, None] + j * np.pi / n
        )
        f1 = np.cos(0.5 * x1 * np.pi) * np.cos(0.5 * x2 * np.pi) + _mean_sq_rows(Y, J1)
        f2 = np.cos(0.5 * x1 * np.pi) * np.sin(0.5 * x2 * np.pi) + _mean_sq_rows(Y, J2)
        f3 = np.sin(0.5 * x1 * np.pi) + _mean_sq_rows(Y, J3)
        return np.stack([f1, f2, f3], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(3, 0.02)


class UF9(Problem):
    """Tri-objective; two-part planar front."""

    def __init__(self, nvars: int = 30, eps: float = 0.1) -> None:
        if nvars < 5:
            raise ValueError("UF9 needs at least 5 variables")
        lower = np.full(nvars, -2.0)
        upper = np.full(nvars, 2.0)
        lower[:2], upper[:2] = 0.0, 1.0
        super().__init__(nvars, 3, lower=lower, upper=upper, name="UF9")
        self.eps = eps

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2, J3 = _split_3obj(n)
        x1, x2 = X[:, 0], X[:, 1]
        Y = X[:, 2:] - 2.0 * x2[:, None] * np.sin(
            2.0 * np.pi * x1[:, None] + j * np.pi / n
        )
        gate = np.maximum(
            0.0, (1.0 + self.eps) * (1.0 - 4.0 * (2.0 * x1 - 1.0) ** 2)
        )
        f1 = 0.5 * (gate + 2.0 * x1) * x2 + _mean_sq_rows(Y, J1)
        f2 = 0.5 * (gate - 2.0 * x1 + 2.0) * x2 + _mean_sq_rows(Y, J2)
        f3 = 1.0 - x2 + _mean_sq_rows(Y, J3)
        return np.stack([f1, f2, f3], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(3, 0.02)


class UF10(Problem):
    """Tri-objective; UF8's sphere with a multimodal Rastrigin-style h."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 5:
            raise ValueError("UF10 needs at least 5 variables")
        lower = np.full(nvars, -2.0)
        upper = np.full(nvars, 2.0)
        lower[:2], upper[:2] = 0.0, 1.0
        super().__init__(nvars, 3, lower=lower, upper=upper, name="UF10")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j, J1, J2, J3 = _split_3obj(n)
        x1, x2 = X[:, 0], X[:, 1]
        Y = X[:, 2:] - 2.0 * x2[:, None] * np.sin(
            2.0 * np.pi * x1[:, None] + j * np.pi / n
        )
        H = 4.0 * Y**2 - np.cos(8.0 * np.pi * Y) + 1.0

        def term(mask):
            count = max(1, int(mask.sum()))
            return (2.0 / count) * np.sum(_masked_rows(H, mask), axis=1)

        f1 = np.cos(0.5 * x1 * np.pi) * np.cos(0.5 * x2 * np.pi) + term(J1)
        f2 = np.cos(0.5 * x1 * np.pi) * np.sin(0.5 * x2 * np.pi) + term(J2)
        f3 = np.sin(0.5 * x1 * np.pi) + term(J3)
        return np.stack([f1, f2, f3], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(3, 0.02)
