"""Descriptive statistics: replicate summaries and running monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "confidence_interval",
    "relative_error",
    "TallyMonitor",
    "SeriesMonitor",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a replicate sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.6g} +/- {self.std:.3g} "
            f"[{self.ci_low:.6g}, {self.ci_high:.6g}]"
        )


def confidence_interval(
    data: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean."""
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    m = float(x.mean())
    if x.size == 1:
        return (m, m)
    sem = float(x.std(ddof=1)) / math.sqrt(x.size)
    if sem == 0.0:
        return (m, m)
    from scipy import stats as sps

    half = float(sps.t.ppf(0.5 + confidence / 2.0, df=x.size - 1)) * sem
    return (m - half, m + half)


def summarize(data: Sequence[float], confidence: float = 0.95) -> Summary:
    """Summary statistics with a t-based CI on the mean."""
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    lo, hi = confidence_interval(x, confidence)
    return Summary(
        n=int(x.size),
        mean=float(x.mean()),
        std=float(x.std(ddof=1)) if x.size > 1 else 0.0,
        minimum=float(x.min()),
        median=float(np.median(x)),
        maximum=float(x.max()),
        ci_low=lo,
        ci_high=hi,
    )


def relative_error(actual: float, predicted: float) -> float:
    """The paper's Eq. 5: |actual - predicted| / |actual|."""
    if actual == 0.0:
        return math.inf if predicted != 0.0 else 0.0
    return abs(actual - predicted) / abs(actual)


class TallyMonitor:
    """Accumulates observations and basic moments without storing them.

    Uses Welford's online algorithm so the variance is numerically
    stable even over millions of timing samples.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        return self.std / self.mean if self.mean else 0.0


class SeriesMonitor:
    """A piecewise-constant time series (e.g. tasks in flight).

    ``record(t, v)`` declares that the series took value ``v`` from time
    ``t`` onward.  Only running aggregates are kept -- the integral, the
    latest sample, and the per-sample extrema and moments (``last``,
    ``minimum``, ``maximum``, ``mean``, ``variance``) -- so memory stays
    O(1) however many samples a long-lived gauge records.
    """

    def __init__(self) -> None:
        self.count = 0
        self._t0: Optional[float] = None
        self._last_time: Optional[float] = None
        self._last_value = 0.0
        self._integral = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def record(self, time: float, value: float) -> None:
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"non-monotone time {time} after {self._last_time}"
            )
        if self._t0 is None:
            self._t0 = time
        else:
            self._integral += self._last_value * (time - self._last_time)
        self._last_time = time
        self._last_value = value
        self.count += 1
        # Per-sample (not time-weighted) moments, Welford's algorithm.
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean of the series on ``[t0, until]``.

        ``until`` defaults to the last sample and may not precede it.
        """
        if self._t0 is None:
            return 0.0
        end = self._last_time if until is None else until
        duration = end - self._t0
        if duration <= 0:
            return self._last_value
        total = self._integral
        # The final sample extends to ``end``.
        tail = end - self._last_time
        if tail > 0:
            total += self._last_value * tail
        elif tail < 0:
            raise ValueError(
                f"time_average(until={until}) precedes the last sample at "
                f"{self._last_time}"
            )
        return total / duration

    @property
    def last(self) -> float:
        return self._last_value if self._last_time is not None else 0.0

    @property
    def mean(self) -> float:
        """Per-sample mean of the recorded values (unweighted; use
        :meth:`time_average` for the time-weighted one)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Per-sample variance of the recorded values (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)
