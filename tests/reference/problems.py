"""Frozen scalar problem kernels: the per-row oracle for ``_evaluate_batch``.

Each function below is the scalar ``_evaluate`` (objectives) or
``_evaluate_constraints`` (violations) that the problem classes carried
before ``_evaluate_batch`` became their only kernel, copied verbatim
with ``self`` the problem instance.  The only edits are the calls that
reached deleted helpers or a wrapped problem's scalar kernel; those now
call the copies in this module.

:func:`scalar_evaluate` dispatches on the problem's class (walking the
MRO, so ``UF11`` resolves to the rotated-problem oracle and ``UF13`` to
WFG1's), and :func:`evaluate_batch_fallback` is the row-by-row batch
loop the base class used to fall back to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.problems import (
    DTLZ1,
    DTLZ2,
    DTLZ3,
    DTLZ4,
    UF1,
    UF2,
    UF3,
    UF4,
    UF5,
    UF6,
    UF7,
    UF8,
    UF9,
    UF10,
    ZDT1,
    ZDT2,
    ZDT3,
    ZDT4,
    ZDT6,
    AircraftDesign,
    FaultyProblem,
    FunctionProblem,
    LakeProblem,
    RotatedProblem,
    TimedProblem,
)
from repro.problems.uf_extended import _split_2obj, _split_3obj
from repro.problems.wfg import _WFG

__all__ = ["SCALAR_KERNELS", "evaluate_batch_fallback", "scalar_evaluate"]


# -- DTLZ ---------------------------------------------------------------------
def _position_distance(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = self.nobjs
    return x[: m - 1], x[m - 1 :]


def _spherical_objectives(theta: np.ndarray, g: float, m: int) -> np.ndarray:
    """DTLZ2/3/4 shape: products of cosines with a trailing sine."""
    cos = np.cos(theta * np.pi / 2.0)
    sin = np.sin(theta * np.pi / 2.0)
    f = np.empty(m)
    for j in range(m):
        prod = np.prod(cos[: m - 1 - j])
        if j > 0:
            prod *= sin[m - 1 - j]
        f[j] = (1.0 + g) * prod
    return f


def _dtlz1(self, x: np.ndarray) -> np.ndarray:
    pos, dist = _position_distance(self, x)
    m = self.nobjs
    g = 100.0 * (
        self.k
        + np.sum((dist - 0.5) ** 2 - np.cos(20.0 * np.pi * (dist - 0.5)))
    )
    f = np.empty(m)
    for j in range(m):
        prod = np.prod(pos[: m - 1 - j])
        if j > 0:
            prod *= 1.0 - pos[m - 1 - j]
        f[j] = 0.5 * (1.0 + g) * prod
    return f


def _dtlz2(self, x: np.ndarray) -> np.ndarray:
    pos, dist = _position_distance(self, x)
    g = float(np.sum((dist - 0.5) ** 2))
    return _spherical_objectives(pos, g, self.nobjs)


def _dtlz3(self, x: np.ndarray) -> np.ndarray:
    pos, dist = _position_distance(self, x)
    g = 100.0 * (
        self.k
        + np.sum((dist - 0.5) ** 2 - np.cos(20.0 * np.pi * (dist - 0.5)))
    )
    return _spherical_objectives(pos, g, self.nobjs)


def _dtlz4(self, x: np.ndarray) -> np.ndarray:
    pos, dist = _position_distance(self, x)
    g = float(np.sum((dist - 0.5) ** 2))
    return _spherical_objectives(pos**self.alpha, g, self.nobjs)


# -- ZDT ----------------------------------------------------------------------
def _zdt1(self, x: np.ndarray) -> np.ndarray:
    g = 1.0 + 9.0 * np.mean(x[1:])
    f1 = x[0]
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))])


def _zdt2(self, x: np.ndarray) -> np.ndarray:
    g = 1.0 + 9.0 * np.mean(x[1:])
    f1 = x[0]
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])


def _zdt3(self, x: np.ndarray) -> np.ndarray:
    g = 1.0 + 9.0 * np.mean(x[1:])
    f1 = x[0]
    h = 1.0 - np.sqrt(f1 / g) - (f1 / g) * np.sin(10.0 * np.pi * f1)
    return np.array([f1, g * h])


def _zdt4(self, x: np.ndarray) -> np.ndarray:
    tail = x[1:]
    g = (
        1.0
        + 10.0 * tail.size
        + np.sum(tail**2 - 10.0 * np.cos(4.0 * np.pi * tail))
    )
    f1 = x[0]
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))])


def _zdt6(self, x: np.ndarray) -> np.ndarray:
    f1 = 1.0 - np.exp(-4.0 * x[0]) * np.power(np.sin(6.0 * np.pi * x[0]), 6)
    g = 1.0 + 9.0 * np.power(np.mean(x[1:]), 0.25)
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])


# -- CEC-2009 UF1/UF2 and the rotated wrapper ---------------------------------
def _rotated(self, x: np.ndarray) -> np.ndarray:
    return _objectives(self.inner, self.transform(x))


def _uf1(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j = np.arange(2, n + 1)
    y = x[1:] - np.sin(6.0 * np.pi * x[0] + j * np.pi / n)
    odd = j % 2 == 1   # J1: odd j (3, 5, ...)
    even = ~odd        # J2: even j (2, 4, ...)
    f1 = x[0] + (2.0 / max(1, odd.sum())) * np.sum(y[odd] ** 2)
    f2 = 1.0 - np.sqrt(x[0]) + (2.0 / max(1, even.sum())) * np.sum(y[even] ** 2)
    return np.array([f1, f2])


def _uf2(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    x1 = x[0]
    j = np.arange(2, n + 1)
    xj = x[1:]
    odd = j % 2 == 1
    even = ~odd
    y = np.where(
        odd,
        xj
        - (
            0.3 * x1**2 * np.cos(24.0 * np.pi * x1 + 4.0 * j * np.pi / n)
            + 0.6 * x1
        )
        * np.cos(6.0 * np.pi * x1 + j * np.pi / n),
        xj
        - (
            0.3 * x1**2 * np.cos(24.0 * np.pi * x1 + 4.0 * j * np.pi / n)
            + 0.6 * x1
        )
        * np.sin(6.0 * np.pi * x1 + j * np.pi / n),
    )
    f1 = x1 + (2.0 / max(1, odd.sum())) * np.sum(y[odd] ** 2)
    f2 = 1.0 - np.sqrt(x1) + (2.0 / max(1, even.sum())) * np.sum(y[even] ** 2)
    return np.array([f1, f2])


# -- CEC-2009 UF3-UF10 ---------------------------------------------------------
def _mean_sq(y: np.ndarray, mask: np.ndarray) -> float:
    """(2 / |J|) * sum of squares over the masked entries."""
    count = max(1, int(mask.sum()))
    return (2.0 / count) * float(np.sum(y[mask] ** 2))


def _uf3(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2 = _split_2obj(n)
    x1 = x[0]
    y = x[1:] - x1 ** (0.5 * (1.0 + 3.0 * (j - 2.0) / (n - 2.0)))

    def term(mask):
        count = max(1, int(mask.sum()))
        yj = y[mask]
        cos_part = np.prod(np.cos(20.0 * yj * np.pi / np.sqrt(j[mask])))
        return (2.0 / count) * (
            4.0 * float(np.sum(yj**2)) - 2.0 * cos_part + 2.0
        )

    f1 = x1 + term(J1)
    f2 = 1.0 - np.sqrt(x1) + term(J2)
    return np.array([f1, f2])


def _uf4(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2 = _split_2obj(n)
    x1 = x[0]
    y = x[1:] - np.sin(6.0 * np.pi * x1 + j * np.pi / n)
    h = np.abs(y) / (1.0 + np.exp(2.0 * np.abs(y)))

    def term(mask):
        count = max(1, int(mask.sum()))
        return (2.0 / count) * float(np.sum(h[mask]))

    f1 = x1 + term(J1)
    f2 = 1.0 - x1**2 + term(J2)
    return np.array([f1, f2])


def _uf5(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2 = _split_2obj(n)
    x1 = x[0]
    y = x[1:] - np.sin(6.0 * np.pi * x1 + j * np.pi / n)
    h = 2.0 * y**2 - np.cos(4.0 * np.pi * y) + 1.0
    bump = (0.5 / self.N + self.eps) * abs(np.sin(2.0 * self.N * np.pi * x1))

    def term(mask):
        count = max(1, int(mask.sum()))
        return (2.0 / count) * float(np.sum(h[mask]))

    f1 = x1 + bump + term(J1)
    f2 = 1.0 - x1 + bump + term(J2)
    return np.array([f1, f2])


def _uf6(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2 = _split_2obj(n)
    x1 = x[0]
    y = x[1:] - np.sin(6.0 * np.pi * x1 + j * np.pi / n)
    bump = max(
        0.0,
        2.0 * (0.5 / self.N + self.eps) * np.sin(2.0 * self.N * np.pi * x1),
    )

    def term(mask):
        count = max(1, int(mask.sum()))
        yj = y[mask]
        cos_part = np.prod(np.cos(20.0 * yj * np.pi / np.sqrt(j[mask])))
        return (2.0 / count) * (
            4.0 * float(np.sum(yj**2)) - 2.0 * cos_part + 2.0
        )

    f1 = x1 + bump + term(J1)
    f2 = 1.0 - x1 + bump + term(J2)
    return np.array([f1, f2])


def _uf7(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2 = _split_2obj(n)
    x1 = x[0]
    y = x[1:] - np.sin(6.0 * np.pi * x1 + j * np.pi / n)
    # np.power (not **): np.float64.__pow__ rounds differently from
    # the power ufunc used by the batch path.
    root = np.power(x1, 0.2)
    f1 = root + _mean_sq(y, J1)
    f2 = 1.0 - root + _mean_sq(y, J2)
    return np.array([f1, f2])


def _uf8(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2, J3 = _split_3obj(n)
    x1, x2 = x[0], x[1]
    y = x[2:] - 2.0 * x2 * np.sin(2.0 * np.pi * x1 + j * np.pi / n)
    f1 = np.cos(0.5 * x1 * np.pi) * np.cos(0.5 * x2 * np.pi) + _mean_sq(y, J1)
    f2 = np.cos(0.5 * x1 * np.pi) * np.sin(0.5 * x2 * np.pi) + _mean_sq(y, J2)
    f3 = np.sin(0.5 * x1 * np.pi) + _mean_sq(y, J3)
    return np.array([f1, f2, f3])


def _uf9(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2, J3 = _split_3obj(n)
    x1, x2 = x[0], x[1]
    y = x[2:] - 2.0 * x2 * np.sin(2.0 * np.pi * x1 + j * np.pi / n)
    gate = max(0.0, (1.0 + self.eps) * (1.0 - 4.0 * (2.0 * x1 - 1.0) ** 2))
    f1 = 0.5 * (gate + 2.0 * x1) * x2 + _mean_sq(y, J1)
    f2 = 0.5 * (gate - 2.0 * x1 + 2.0) * x2 + _mean_sq(y, J2)
    f3 = 1.0 - x2 + _mean_sq(y, J3)
    return np.array([f1, f2, f3])


def _uf10(self, x: np.ndarray) -> np.ndarray:
    n = self.nvars
    j, J1, J2, J3 = _split_3obj(n)
    x1, x2 = x[0], x[1]
    y = x[2:] - 2.0 * x2 * np.sin(2.0 * np.pi * x1 + j * np.pi / n)
    h = 4.0 * y**2 - np.cos(8.0 * np.pi * y) + 1.0

    def term(mask):
        count = max(1, int(mask.sum()))
        return (2.0 / count) * float(np.sum(h[mask]))

    f1 = np.cos(0.5 * x1 * np.pi) * np.cos(0.5 * x2 * np.pi) + term(J1)
    f2 = np.cos(0.5 * x1 * np.pi) * np.sin(0.5 * x2 * np.pi) + term(J2)
    f3 = np.sin(0.5 * x1 * np.pi) + term(J3)
    return np.array([f1, f2, f3])


# -- WFG (the scalar path was already a batch of one) -------------------------
def _wfg(self, z: np.ndarray) -> np.ndarray:
    F, _ = self._evaluate_batch(np.asarray(z, dtype=float)[None, :])
    return F[0]


# -- Engineering problems -------------------------------------------------------
def _aircraft(self, x: np.ndarray) -> np.ndarray:
    p = self._physics(x)
    return np.array(
        [
            p["fuel_flow"],          # fuel burn (lb/hr)
            p["noise"],              # cabin noise (dB-ish)
            p["cost"],               # acquisition cost ($k)
            -p["range_nm"],          # maximise range
            -p["climb_rate"],        # maximise climb rate
        ]
    )


def _aircraft_constraints(self, x: np.ndarray) -> np.ndarray:
    p = self._physics(x)
    seats = x[5]

    def violation_ge(value: float, limit: float) -> float:
        """Violation magnitude of ``value >= limit``."""
        return max(0.0, limit - value)

    def violation_le(value: float, limit: float) -> float:
        """Violation magnitude of ``value <= limit``."""
        return max(0.0, value - limit)

    return np.array(
        [
            violation_ge(p["payload"], 170.0 * seats),      # carry pax
            violation_ge(p["climb_rate"], 500.0),            # min climb
            violation_le(p["stall_speed"], 61.0),            # FAR 23 stall
            violation_ge(p["range_nm"], 400.0),              # min range
            violation_le(p["noise"], 118.0),                 # noise cap
            violation_le(p["cost"], 400.0),                  # budget cap
            violation_ge(x[3] - p["required_power"], 0.0),   # power margin
            violation_le(p["gross_weight"], 6000.0),         # weight cap
            violation_ge(p["fuel_weight"], 120.0),           # reserve fuel
        ]
    )


def _lake_simulate(self, decisions: np.ndarray) -> np.ndarray:
    """Lake phosphorus trajectory under a discharge policy."""
    # np.power (not **): np.float64.__pow__ rounds differently from
    # the power ufunc the batched simulation uses.
    horizon = decisions.size
    x = np.empty(horizon + 1)
    x[0] = 0.0
    for t in range(horizon):
        pq = np.power(x[t], self.q)
        recycling = pq / (1.0 + pq)
        x[t + 1] = x[t] + decisions[t] + recycling - self.b * x[t]
    return x


def _lake(self, a: np.ndarray) -> np.ndarray:
    x = _lake_simulate(self, a)
    t = np.arange(a.size)
    benefit = float(np.sum(self.alpha * a * self.delta**t))
    peak_p = float(np.max(x))
    # Inertia: fraction of transitions without a drastic cut.
    cuts = np.diff(a, prepend=a[0])
    inertia = float(np.mean(cuts >= -self.inertia_limit))
    reliability = float(np.mean(x[1:] < self.critical_p))
    return np.array([-benefit, peak_p, -inertia, -reliability])


# -- Wrappers -------------------------------------------------------------------
def _function(self, x: np.ndarray) -> np.ndarray:
    return np.asarray(self._function(x), dtype=float)


def _function_constraints(self, x: np.ndarray):
    if self._constraint_function is None:
        return None
    return np.asarray(self._constraint_function(x), dtype=float)


def _timed(self, x: np.ndarray) -> np.ndarray:
    return _objectives(self.inner, x)


def _timed_constraints(self, x: np.ndarray):
    return _constraints(self.inner, x)


def _faulty(self, x: np.ndarray) -> np.ndarray:
    corrupt = self._maybe_inject()
    f = np.asarray(_objectives(self.inner, x), dtype=float)
    if corrupt:
        f = f.copy()
        f[0] = np.nan
    return f


def _faulty_constraints(self, x: np.ndarray):
    return _constraints(self.inner, x)


#: Problem class -> (scalar objectives, scalar constraints or None).
SCALAR_KERNELS = {
    DTLZ1: (_dtlz1, None),
    DTLZ2: (_dtlz2, None),
    DTLZ3: (_dtlz3, None),
    DTLZ4: (_dtlz4, None),
    ZDT1: (_zdt1, None),
    ZDT2: (_zdt2, None),
    ZDT3: (_zdt3, None),
    ZDT4: (_zdt4, None),
    ZDT6: (_zdt6, None),
    RotatedProblem: (_rotated, None),
    UF1: (_uf1, None),
    UF2: (_uf2, None),
    UF3: (_uf3, None),
    UF4: (_uf4, None),
    UF5: (_uf5, None),
    UF6: (_uf6, None),
    UF7: (_uf7, None),
    UF8: (_uf8, None),
    UF9: (_uf9, None),
    UF10: (_uf10, None),
    _WFG: (_wfg, None),
    AircraftDesign: (_aircraft, _aircraft_constraints),
    LakeProblem: (_lake, None),
    FunctionProblem: (_function, _function_constraints),
    TimedProblem: (_timed, _timed_constraints),
    FaultyProblem: (_faulty, _faulty_constraints),
}


def _kernels(problem):
    for cls in type(problem).__mro__:
        if cls in SCALAR_KERNELS:
            return SCALAR_KERNELS[cls]
    raise TypeError(f"no scalar oracle for {type(problem).__name__}")


def _objectives(problem, x: np.ndarray) -> np.ndarray:
    return _kernels(problem)[0](problem, x)


def _constraints(problem, x: np.ndarray) -> Optional[np.ndarray]:
    constraints = _kernels(problem)[1]
    return None if constraints is None else constraints(problem, x)


def scalar_evaluate(problem, x: np.ndarray):
    """``(objectives, constraints-or-None)`` of one decision vector,
    through the frozen scalar kernels (objectives first, as the old
    ``Problem.evaluate`` ran them)."""
    f = _objectives(problem, x)
    return f, _constraints(problem, x)


def _evaluate_batch_fallback(
    self, X: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Reference row-by-row batch evaluation (always available)."""
    n = X.shape[0]
    F = np.empty((n, self.nobjs), dtype=float)
    C: Optional[np.ndarray] = None
    for i in range(n):
        F[i] = np.asarray(_objectives(self, X[i]), dtype=float)
        constraints = _constraints(self, X[i])
        if constraints is not None:
            if C is None:
                C = np.zeros(
                    (n, np.asarray(constraints).shape[0]), dtype=float
                )
            C[i] = np.asarray(constraints, dtype=float)
    return F, C


def evaluate_batch_fallback(problem, X: np.ndarray):
    """The scalar-loop stand-in for ``problem._evaluate_batch(X)``.

    A :class:`FaultyProblem` draws one fault decision for the whole
    block and evaluates its inner problem through the loop, exactly as
    its own fallback override did, so fault streams line up with the
    production kernel.
    """
    if isinstance(problem, FaultyProblem):
        corrupt = problem._maybe_inject()
        F, C = evaluate_batch_fallback(problem.inner, X)
        if corrupt:
            F = problem._corrupt(F)
        return F, C
    return _evaluate_batch_fallback(problem, X)
