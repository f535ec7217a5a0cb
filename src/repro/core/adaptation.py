"""Auto-adaptive operator selection (paper §II).

Borg assigns each operator a selection probability proportional to the
number of archive members it produced, smoothed by ``zeta`` so that no
operator's probability collapses to zero:

    p_i = (c_i + zeta) / sum_j (c_j + zeta)

Operators that keep contributing diverse, high-quality solutions to the
epsilon-dominance archive are therefore favoured, which is what lets
Borg tailor itself to problems of widely varying structure.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .operators.base import Variator

__all__ = ["OperatorSelector"]


class OperatorSelector:
    """Probability-weighted roulette over a set of variation operators."""

    def __init__(self, operators: Sequence[Variator], zeta: float = 1.0) -> None:
        if not operators:
            raise ValueError("need at least one operator")
        if zeta <= 0:
            raise ValueError("zeta must be positive (it prevents starvation)")
        self.operators = list(operators)
        self.zeta = zeta
        self.probabilities = np.full(len(operators), 1.0 / len(operators))
        #: How many times each operator has been selected (diagnostics).
        self.selection_counts = np.zeros(len(operators), dtype=int)

    def select(self, rng: np.random.Generator) -> Variator:
        """Draw one operator according to the current probabilities."""
        i = int(rng.choice(len(self.operators), p=self.probabilities))
        self.selection_counts[i] += 1
        return self.operators[i]

    def update(self, archive_counts: Mapping[str, int]) -> np.ndarray:
        """Recompute probabilities from archive membership counts.

        ``archive_counts`` maps operator names to the number of current
        archive members they produced (solutions tagged ``"initial"`` or
        other unknown tags are ignored).
        """
        counts = np.array(
            [max(0, archive_counts.get(op.name, 0)) for op in self.operators],
            dtype=float,
        )
        weights = counts + self.zeta
        self.probabilities = weights / weights.sum()
        return self.probabilities

    def probability_of(self, name: str) -> float:
        """Current selection probability of the operator called ``name``."""
        for op, p in zip(self.operators, self.probabilities):
            if op.name == name:
                return float(p)
        raise KeyError(name)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{op.name}={p:.3f}"
            for op, p in zip(self.operators, self.probabilities)
        )
        return f"<OperatorSelector {pairs}>"
