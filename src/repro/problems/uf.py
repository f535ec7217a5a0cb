"""CEC-2009 unconstrained test instances (Zhang et al., tech. rep. CES-487).

UF11 -- the paper's "hard" problem -- is the competition's
``R2_DTLZ2_M5``: a 30-variable, 5-objective DTLZ2 whose decision
variables are rotated and scaled to introduce dependencies between the
variables, defeating separable search.

Substitution note (see DESIGN.md): the official rotation matrices ship
as data files with the CEC-2009 toolkit and are not redistributable, so
:class:`UF11`/:class:`UF12` use deterministic seeded rotations instead.
The rotation acts on the *distance* variables only and the scaling
factors are <= 1, which guarantees the true Pareto front remains exactly
DTLZ2's unit hypersphere octant (resp. DTLZ3's) -- i.e. the reference
set stays analytically known, as the paper requires -- while the
variable coupling that makes UF11 hard is fully preserved.

UF1 and UF2 (2-objective, exact published formulas) are included for
the wider test suite.
"""

from __future__ import annotations

import numpy as np

from .base import Problem
from .dtlz import DTLZ2, DTLZ3
from .rotation import random_rotation, random_scaling, rotate, rotate_rows

__all__ = ["UF1", "UF2", "UF11", "UF12", "RotatedProblem"]


class RotatedProblem(Problem):
    """Wrap a problem with a rotation/scaling of its distance variables.

    The wrapped problem sees ``z`` where::

        z_pos  = x_pos                                  (position vars)
        z_dist = c + S R (x_dist - c)                   (distance vars)

    with ``c`` the centre of the distance-variable box, ``R`` a seeded
    rotation, and ``S = diag(s), s <= 1``.  Because the map fixes ``c``
    and never leaves the box, any inner optimum with ``z_dist = c``
    (true for DTLZ2/DTLZ3, whose optima sit at 0.5) is attainable at
    ``x_dist = c``: the Pareto front is unchanged.
    """

    def __init__(
        self,
        inner: Problem,
        n_position: int,
        seed: int = 2009,
        scale_low: float = 0.5,
        name: str | None = None,
    ) -> None:
        if not 0 <= n_position < inner.nvars:
            raise ValueError("n_position out of range")
        super().__init__(
            inner.nvars,
            inner.nobjs,
            lower=inner.lower,
            upper=inner.upper,
            nconstraints=inner.nconstraints,
            name=name or f"Rotated{inner.name}",
        )
        self.inner = inner
        self.n_position = n_position
        nd = inner.nvars - n_position
        self.rotation = random_rotation(nd, seed)
        self.scaling = random_scaling(nd, low=scale_low, high=1.0, seed=seed + 1)
        lo = inner.lower[n_position:]
        hi = inner.upper[n_position:]
        self._centre = 0.5 * (lo + hi)
        self._half = 0.5 * (hi - lo)

    # Both transform paths use einsum rather than ``@``: BLAS gemv and
    # gemm round differently from each other, while einsum's sum-product
    # is bit-identical between the single-vector and batched forms.
    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map a decision vector to the inner problem's coordinates."""
        z = np.array(x, dtype=float)
        d = x[self.n_position :] - self._centre
        rotated = self.scaling * rotate(self.rotation, d)
        # The scaled rotation can still poke out of the box corners for
        # extreme points; clip (the clip region is off-optimal).
        z[self.n_position :] = np.clip(
            self._centre + rotated,
            self._centre - self._half,
            self._centre + self._half,
        )
        return z

    def transform_batch(self, X: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`transform`, bit-identical per row."""
        Z = np.array(X, dtype=float)
        D = X[:, self.n_position :] - self._centre
        rotated = self.scaling * rotate_rows(self.rotation, D)
        Z[:, self.n_position :] = np.clip(
            self._centre + rotated,
            self._centre - self._half,
            self._centre + self._half,
        )
        return Z

    def _evaluate_batch(self, X: np.ndarray):
        F, _ = self.inner._evaluate_batch(self.transform_batch(X))
        return F, None

    def default_epsilons(self) -> np.ndarray:
        return self.inner.default_epsilons()


class UF11(RotatedProblem):
    """CEC-2009 UF11 (R2_DTLZ2_M5): rotated, scaled 5-objective DTLZ2.

    The paper's hard benchmark.  30 decision variables, 5 objectives;
    the 26 distance variables are coupled through a seeded rotation
    (see module docstring for the substitution rationale).
    """

    def __init__(self, nvars: int = 30, nobjs: int = 5, seed: int = 2009) -> None:
        inner = DTLZ2(nobjs=nobjs, nvars=nvars)
        super().__init__(inner, n_position=nobjs - 1, seed=seed, name="UF11")


class UF12(RotatedProblem):
    """CEC-2009 UF12 (R3_DTLZ3_M5): rotated, scaled 5-objective DTLZ3."""

    def __init__(self, nvars: int = 30, nobjs: int = 5, seed: int = 2010) -> None:
        inner = DTLZ3(nobjs=nobjs, nvars=nvars)
        super().__init__(inner, n_position=nobjs - 1, seed=seed, name="UF12")


class UF1(Problem):
    """CEC-2009 UF1: 2-objective, published closed form.

    x1 in [0,1], x2..xn in [-1,1]; Pareto front f2 = 1 - sqrt(f1).
    """

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 3:
            raise ValueError("UF1 needs at least 3 variables")
        lower = np.full(nvars, -1.0)
        upper = np.ones(nvars)
        lower[0] = 0.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF1")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j = np.arange(2, n + 1)
        x1 = X[:, 0]
        Y = X[:, 1:] - np.sin(6.0 * np.pi * x1[:, None] + j * np.pi / n)
        odd = j % 2 == 1
        even = ~odd
        # Boolean column selection returns an F-ordered array whose
        # axis-1 sum takes a different (sequential) reduction path than
        # the scalar reference's pairwise sum; re-layout for bit parity.
        y_odd = np.ascontiguousarray(Y[:, odd])
        y_even = np.ascontiguousarray(Y[:, even])
        f1 = x1 + (2.0 / max(1, odd.sum())) * np.sum(y_odd**2, axis=1)
        f2 = (
            1.0
            - np.sqrt(x1)
            + (2.0 / max(1, even.sum())) * np.sum(y_even**2, axis=1)
        )
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)


class UF2(Problem):
    """CEC-2009 UF2: 2-objective with nonlinear variable linkage."""

    def __init__(self, nvars: int = 30) -> None:
        if nvars < 3:
            raise ValueError("UF2 needs at least 3 variables")
        lower = np.full(nvars, -1.0)
        upper = np.ones(nvars)
        lower[0] = 0.0
        super().__init__(nvars, 2, lower=lower, upper=upper, name="UF2")

    def _evaluate_batch(self, X: np.ndarray):
        n = self.nvars
        j = np.arange(2, n + 1)
        x1 = X[:, 0][:, None]
        Xj = X[:, 1:]
        odd = j % 2 == 1
        even = ~odd
        Y = np.where(
            odd,
            Xj
            - (
                0.3 * x1**2 * np.cos(24.0 * np.pi * x1 + 4.0 * j * np.pi / n)
                + 0.6 * x1
            )
            * np.cos(6.0 * np.pi * x1 + j * np.pi / n),
            Xj
            - (
                0.3 * x1**2 * np.cos(24.0 * np.pi * x1 + 4.0 * j * np.pi / n)
                + 0.6 * x1
            )
            * np.sin(6.0 * np.pi * x1 + j * np.pi / n),
        )
        x1 = x1[:, 0]
        y_odd = np.ascontiguousarray(Y[:, odd])
        y_even = np.ascontiguousarray(Y[:, even])
        f1 = x1 + (2.0 / max(1, odd.sum())) * np.sum(y_odd**2, axis=1)
        f2 = (
            1.0
            - np.sqrt(x1)
            + (2.0 / max(1, even.sum())) * np.sum(y_even**2, axis=1)
        )
        return np.stack([f1, f2], axis=1), None

    def default_epsilons(self) -> np.ndarray:
        return np.full(2, 0.005)
