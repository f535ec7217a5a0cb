"""Busy/idle span tracking for simkit simulations.

The time-weighted and tally monitors live in :mod:`repro.stats`.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["SpanTracker"]


class SpanTracker:
    """Tracks alternating busy/idle spans for one actor (e.g. a worker).

    Used to regenerate the Figure 1/2 timeline data: each ``begin`` /
    ``end`` pair contributes a labelled span, and idle time is whatever
    is left over.

    With ``record=False`` individual spans are not stored -- only the
    per-label and overall totals -- so memory is O(#labels) rather than
    O(#spans).  The timeline (:attr:`spans`) stays empty in that mode.
    """

    def __init__(self, record: bool = True) -> None:
        self.keep_history = record
        self.spans: list[tuple[float, float, str]] = []
        self._open: Optional[tuple[float, str]] = None
        self._totals: dict[str, float] = {}
        self._busy = 0.0
        self.count = 0

    def begin(self, time: float, label: str) -> None:
        if self._open is not None:
            raise RuntimeError(f"span {self._open[1]!r} still open")
        self._open = (time, label)

    def end(self, time: float) -> None:
        if self._open is None:
            raise RuntimeError("no span open")
        start, label = self._open
        if time < start:
            raise ValueError("span ends before it starts")
        if self.keep_history:
            self.spans.append((start, time, label))
        duration = time - start
        self._totals[label] = self._totals.get(label, 0.0) + duration
        self._busy += duration
        self.count += 1
        self._open = None

    def total(self, label: str) -> float:
        """Total duration spent in spans with ``label``."""
        return self._totals.get(label, 0.0)

    def busy_total(self) -> float:
        return self._busy

    def idle_total(self, horizon: float) -> float:
        """Idle time over ``[0, horizon]`` (time not in any span)."""
        return horizon - self.busy_total()
