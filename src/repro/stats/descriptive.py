"""Descriptive statistics over replicate experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Summary", "summarize", "confidence_interval", "relative_error"]


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
