"""Statistical comparison of stochastic optimiser runs.

MOEA results vary run to run, so claims like "Borg beats NSGA-II" or
"P = 64 matches serial quality" need replicate distributions and a
nonparametric test, not single numbers.  These helpers wrap the
customary EMO-community methodology: Mann-Whitney U on end-of-run
indicator values, with the Vargha-Delaney A12 effect size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["ComparisonResult", "mann_whitney", "a12_effect_size", "compare_samples"]


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing two replicate samples (higher = better)."""

    median_a: float
    median_b: float
    #: Two-sided Mann-Whitney U p-value.
    p_value: float
    #: Vargha-Delaney A12: P(draw from A > draw from B) + ties/2.
    a12: float
    #: True when the difference is significant at the chosen alpha.
    significant: bool

    @property
    def winner(self) -> str:
        """"a", "b", or "tie" (not significant)."""
        if not self.significant:
            return "tie"
        return "a" if self.a12 > 0.5 else "b"

    def __str__(self) -> str:
        return (
            f"medians {self.median_a:.4g} vs {self.median_b:.4g}, "
            f"p={self.p_value:.4g}, A12={self.a12:.3f} -> {self.winner}"
        )


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney U p-value (no normality assumption)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 observations per sample")
    from scipy import stats as sps

    return float(sps.mannwhitneyu(a, b, alternative="two-sided").pvalue)


def a12_effect_size(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12: probability a random A value exceeds a
    random B value (0.5 = stochastically equal; >0.71 = large)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    greater = (a[:, None] > b[None, :]).sum()
    ties = (a[:, None] == b[None, :]).sum()
    return float((greater + 0.5 * ties) / (a.size * b.size))


def compare_samples(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> ComparisonResult:
    """Full comparison of two replicate samples (higher is better)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    p = mann_whitney(a, b)
    return ComparisonResult(
        median_a=float(np.median(a)),
        median_b=float(np.median(b)),
        p_value=p,
        a12=a12_effect_size(a, b),
        significant=p < alpha,
    )
