"""Result container shared by all parallel backends."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cluster.trace import Timeline
from ..core.borg import BorgResult
from ..core.events import RunHistory
from ..stats import TallyMonitor
from .supervision import FaultStats

__all__ = ["ParallelRunResult"]


@dataclass
class ParallelRunResult:
    """Outcome of one parallel master-slave run.

    ``elapsed`` is virtual seconds for simulated backends and wall
    seconds for real ones; the remaining fields mirror the quantities
    Table II reports plus diagnostics.
    """

    #: Total runtime (the paper's T_P).
    elapsed: float
    #: Completed function evaluations (the paper's N).
    nfe: int
    #: Processor count including the master (the paper's P).
    processors: int
    #: Full algorithm outcome (archive, adaptation state, restarts).
    borg: BorgResult
    #: Archive snapshots over (virtual) time.
    history: RunHistory
    #: Evaluations completed by each worker (length P-1).
    worker_evaluations: np.ndarray
    #: Seconds the master spent busy (communication + processing).
    master_busy: float = 0.0
    #: Mean time workers queued for the master (contention measure).
    master_mean_wait: float = 0.0
    #: Peak number of workers simultaneously queued at the master,
    #: *including* the t=0 initial-dispatch burst (P-2 whenever the
    #: P-1 workers start together) -- a transient-fill figure, not
    #: steady-state contention (see ``master_mean_wait``).
    master_max_queue: int = 0
    #: Observed samples of each cost component ("ta", "tc", "tf").
    observed: dict[str, TallyMonitor] = field(default_factory=dict)
    #: Per-actor execution timeline (populated when tracing is on).
    trace: Optional[Timeline] = None
    #: Supervision counters (all zero for virtual/healthy runs).
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def workers(self) -> int:
        return self.processors - 1

    # -- fault observability (delegates to the supervisor's counters) ------
    @property
    def failures_detected(self) -> int:
        """Worker deaths and hang kills the supervisor detected."""
        return self.faults.failures_detected

    @property
    def tasks_redispatched(self) -> int:
        """In-flight tasks re-dispatched after a detected fault."""
        return self.faults.tasks_redispatched

    @property
    def results_quarantined(self) -> int:
        """Worker replies rejected (structured errors + validation)."""
        return self.faults.results_quarantined

    @property
    def checkpoints_written(self) -> int:
        """Checkpoint files written during the run."""
        return self.faults.checkpoints_written

    @property
    def evaluations_per_worker(self) -> float:
        """Mean evaluations per worker (the paper's N / (P-1))."""
        return self.nfe / max(1, self.workers)

    @property
    def master_utilization(self) -> float:
        """Fraction of the run the master was busy; saturation -> 1."""
        return self.master_busy / self.elapsed if self.elapsed > 0 else 0.0

    def efficiency(self, serial_time: float) -> float:
        """Parallel efficiency E_P = T_S / (P * T_P) (paper §IV-B)."""
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / (self.processors * self.elapsed)

    def speedup(self, serial_time: float) -> float:
        """Speedup S_P = T_S / T_P."""
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / self.elapsed

    def __repr__(self) -> str:
        return (
            f"<ParallelRunResult P={self.processors} nfe={self.nfe} "
            f"elapsed={self.elapsed:.4g}s restarts={self.borg.restarts}>"
        )
