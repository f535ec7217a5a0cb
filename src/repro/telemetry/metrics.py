"""Metrics registry: reduce the event stream to the numbers that matter.

A :class:`MetricsRegistry` is a pure consumer of
:class:`~repro.telemetry.events.Event` objects -- feed it via
:meth:`observe` (from a :class:`~repro.telemetry.tail.JournalTailer`
poll loop) or subscribe it to an in-process
:class:`~repro.telemetry.events.EventBus`.  It aggregates:

* **counters** -- evaluations completed/failed, reclaims, dead
  letters, duplicate-``tell`` suppressions, restarts, epsilon
  improvements, snapshots, migrations;
* **gauges** -- NFE, pending/running trials, archive size, the master
  lease holder, study liveness -- with the in-flight window tracked as
  a time-weighted :class:`~repro.stats.SeriesMonitor` (O(1) memory);
* **operator probabilities** -- the latest adaptive selection vector;
* **evaluation latency** -- a :class:`~repro.stats.TallyMonitor`
  over claim->complete spans plus a bounded window for p50/p99 (wall
  clock for in-process events; observation clock for tailed ones, so
  accurate to the tailer's poll interval);
* **NFE throughput** -- evaluations/second over a sliding window;
* **hypervolume** -- an online indicator over the nondominated subset
  of every completed evaluation's objectives, measured against a
  reference point grown from the observed per-objective maxima (+5%
  margin).  Because the reference adapts to the data seen so far this
  is a *progress* indicator for watching a live run, not the paper's
  fixed-reference benchmark metric; accordingly it is exact up to 3
  objectives and a seeded Monte Carlo estimate beyond, memoized per
  front revision so polls between archive changes cost nothing.

:meth:`snapshot` renders everything as one JSON-ready dict (the
``/api/metrics`` payload) and appends to a bounded trajectory so the
dashboard can draw NFE/hypervolume over time without a second pass.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Optional

import numpy as np

from ..stats import SeriesMonitor, TallyMonitor
from . import events as ev
from .events import Event

__all__ = ["MetricsRegistry"]

#: Counter slots every registry starts with (stable JSON schema).
_COUNTERS = (
    "events",
    "evals_enqueued",
    "evals_started",
    "evals_completed",
    "evals_failed",
    "archive_inserts",
    "epsilon_improvements",
    "restarts",
    "operator_updates",
    "worker_faults",
    "redispatches",
    "dead_letters",
    "duplicate_tells",
    "reclaims",
    "lease_claims",
    "snapshots",
    "migrations",
    "islands_retired",
)


class MetricsRegistry:
    """Aggregate an event stream into live run metrics (module doc)."""

    def __init__(
        self,
        latency_window: int = 512,
        throughput_window: float = 30.0,
        trajectory_points: int = 512,
        hv_samples: int = 8192,
    ) -> None:
        self.counters: dict[str, int] = {k: 0 for k in _COUNTERS}
        self.nfe = 0
        self.archive_size = 0
        self.improvements = 0
        self.master: Optional[str] = None
        self.finished = False
        self.operator_probabilities: dict[str, float] = {}
        #: Time-weighted in-flight window (pending + running trials).
        self.in_flight = SeriesMonitor()
        self._pending = 0
        self._running = 0
        #: Claim->complete latency moments over the whole run.
        self.latency = TallyMonitor()
        self._latency_window: deque[float] = deque(maxlen=latency_window)
        self._claim_times: dict[int, float] = {}
        self._throughput_window = float(throughput_window)
        self._completions: deque[tuple[float, int]] = deque()
        #: Nondominated objectives observed so far (row per point).
        self._front: Optional[np.ndarray] = None
        self._ref_max: Optional[np.ndarray] = None
        # Hypervolume memo: recomputed only when front/reference change.
        #: Monte Carlo sample budget for 4+ objective fronts.
        self.hv_samples = int(hv_samples)
        self._front_version = 0
        self._hv_version = -1
        self._hv_value = 0.0
        self._trajectory: deque[dict] = deque(maxlen=trajectory_points)
        self._started_at: Optional[float] = None
        self._last_event_at: Optional[float] = None

    # -- ingestion -----------------------------------------------------------
    def observe(self, event: Event) -> None:
        """Fold one event (safe to use as a bus subscriber)."""
        counters = self.counters
        counters["events"] += 1
        now = event.time
        if self._started_at is None:
            self._started_at = now
        self._last_event_at = now
        kind = event.kind
        data = event.data
        if kind == ev.EVAL_ENQUEUED:
            counters["evals_enqueued"] += 1
            self._pending += 1
            self._record_in_flight(now)
        elif kind == ev.EVAL_STARTED:
            counters["evals_started"] += 1
            trial = data.get("trial")
            if trial is not None:
                self._claim_times[trial] = now
            self._pending = max(0, self._pending - 1)
            self._running += 1
            self._record_in_flight(now)
        elif kind == ev.LEASE_CLAIM:
            counters["lease_claims"] += 1
        elif kind == ev.EVAL_FINISHED:
            counters["evals_completed"] += 1
            self.nfe = max(self.nfe, int(data.get("nfe", self.nfe + 1)))
            self._running = max(0, self._running - 1)
            self._record_in_flight(now)
            trial = data.get("trial")
            started = self._claim_times.pop(trial, None)
            if started is not None and now > started:
                self.latency.record(now - started)
                self._latency_window.append(now - started)
            self._completions.append((now, self.nfe))
            self._trim_throughput(now)
            objectives = data.get("objectives")
            if objectives:
                self._offer_front(np.asarray(objectives, dtype=float))
        elif kind == ev.EVAL_FAILED:
            counters["evals_failed"] += 1
            counters["worker_faults"] += 1
            self._fault_roll(data.get("trial"), now)
        elif kind == ev.LEASE_RECLAIM:
            counters["reclaims"] += 1
            counters["worker_faults"] += 1
            self._fault_roll(data.get("trial"), now)
        elif kind == ev.WORKER_FAULT:
            counters["worker_faults"] += 1
        elif kind == ev.REDISPATCH:
            counters["redispatches"] += 1
        elif kind == ev.DEAD_LETTER:
            counters["dead_letters"] += 1
            self._running = max(0, self._running - 1)
            self._record_in_flight(now)
        elif kind == ev.DUPLICATE_TELL:
            counters["duplicate_tells"] += 1
        elif kind == ev.ARCHIVE_INSERT:
            counters["archive_inserts"] += 1
            self.archive_size = int(
                data.get("archive_size", self.archive_size)
            )
        elif kind == ev.EPSILON_PROGRESS:
            counters["epsilon_improvements"] += 1
            self.improvements = int(
                data.get("improvements", self.improvements + 1)
            )
            self.archive_size = int(
                data.get("archive_size", self.archive_size)
            )
        elif kind == ev.RESTART:
            counters["restarts"] += 1
        elif kind == ev.OPERATOR_UPDATE:
            counters["operator_updates"] += 1
            probs = data.get("probabilities")
            if probs:
                self.operator_probabilities = dict(probs)
        elif kind == ev.SNAPSHOT:
            counters["snapshots"] += 1
            self.nfe = max(self.nfe, int(data.get("nfe", 0)))
            self.archive_size = int(
                data.get("archive_size", self.archive_size)
            )
        elif kind == ev.MASTER_LEASE:
            if data.get("key", "master") == "master":
                self.master = data.get("worker")
        elif kind == ev.MIGRATION:
            counters["migrations"] += 1
        elif kind == ev.ISLAND_RETIRED:
            counters["islands_retired"] += 1
        elif kind == ev.STUDY_FINISHED:
            self.finished = True

    def _record_in_flight(self, now: float) -> None:
        self.in_flight.record(now, self._pending + self._running)

    def _fault_roll(self, trial, now: float) -> None:
        """A faulted trial goes back to pending (requeue semantics)."""
        self._claim_times.pop(trial, None)
        self._running = max(0, self._running - 1)
        self._pending += 1
        self._record_in_flight(now)

    # -- derived metrics -----------------------------------------------------
    def _trim_throughput(self, now: float) -> None:
        window = self._completions
        while window and now - window[0][0] > self._throughput_window:
            window.popleft()

    def throughput(self, now: Optional[float] = None) -> float:
        """Completed evaluations per second over the sliding window."""
        window = self._completions
        if len(window) < 2:
            return 0.0
        if now is not None:
            self._trim_throughput(now)
            if len(window) < 2:
                return 0.0
        (t0, n0), (t1, n1) = window[0], window[-1]
        return (n1 - n0) / (t1 - t0) if t1 > t0 else 0.0

    def _offer_front(self, point: np.ndarray) -> None:
        """Insert one objective vector into the running nondominated
        set (minimization; O(|front|) per insert)."""
        point = point.ravel()
        if self._front is None:
            self._front = point[None, :]
            self._ref_max = point.copy()
            self._front_version += 1
            return
        if point.size != self._front.shape[1]:
            return  # foreign dimensionality (mixed studies); skip
        if bool(np.any(point > self._ref_max)):
            np.maximum(self._ref_max, point, out=self._ref_max)
            self._front_version += 1
        front = self._front
        # Dominated by (or equal to) an incumbent -> discard.
        weakly_better = np.all(front <= point, axis=1)
        if bool(
            np.any(weakly_better & np.any(front < point, axis=1))
        ) or bool(np.any(weakly_better & np.all(front == point, axis=1))):
            return
        # Drop incumbents the new point dominates, then append it.
        keep = ~(
            np.all(front >= point, axis=1) & np.any(front > point, axis=1)
        )
        self._front = np.vstack([front[keep], point[None, :]])
        self._front_version += 1

    def hypervolume(self) -> float:
        """Online hypervolume of the running front (module docstring).

        Memoized per front revision, so metric polls between archive
        changes are free.  Up to 3 objectives the exact sweep is used;
        beyond that the seeded Monte Carlo estimator keeps the cost
        bounded (exact WFG on a many-objective front can take seconds,
        which would stall every dashboard poll -- and this is a live
        progress indicator, not the benchmark metric).
        """
        if self._front is None or self._front.size == 0:
            return 0.0
        if self._hv_version == self._front_version:
            return self._hv_value
        from ..indicators.hypervolume import (
            hypervolume,
            monte_carlo_hypervolume,
        )

        span = np.where(self._ref_max > 0, self._ref_max, 1.0)
        ref = self._ref_max + 0.05 * np.abs(span)
        try:
            if self._front.shape[1] <= 3:
                value = float(hypervolume(self._front, ref))
            else:
                value = float(
                    monte_carlo_hypervolume(
                        self._front, ref, samples=self.hv_samples,
                        seed=9001,
                    )
                )
        except Exception:  # pragma: no cover - degenerate fronts
            value = 0.0
        self._hv_version = self._front_version
        self._hv_value = value
        return value

    def latency_quantiles(self) -> dict[str, float]:
        """p50/p99 of the recent claim->complete latency window."""
        if not self._latency_window:
            return {"p50": 0.0, "p99": 0.0}
        arr = np.asarray(self._latency_window, dtype=float)
        p50, p99 = np.percentile(arr, (50.0, 99.0))
        return {"p50": float(p50), "p99": float(p99)}

    def epsilon_progress_rate(self) -> float:
        """Epsilon improvements per thousand evaluations."""
        if self.nfe <= 0:
            return 0.0
        return 1000.0 * self.improvements / self.nfe

    # -- presentation --------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-ready view of everything; appends one trajectory
        sample, so polling this at the dashboard cadence *is* the
        time-series recording."""
        now = _time.time() if now is None else now
        hv = self.hypervolume()
        quantiles = self.latency_quantiles()
        sample = {
            "time": now,
            "nfe": self.nfe,
            "hypervolume": hv,
            "archive_size": self.archive_size,
        }
        if not self._trajectory or (
            self._trajectory[-1]["nfe"] != self.nfe
            or self._trajectory[-1]["hypervolume"] != hv
        ):
            self._trajectory.append(sample)
        return {
            "time": now,
            "nfe": self.nfe,
            "finished": self.finished,
            "master": self.master,
            "archive_size": self.archive_size,
            "improvements": self.improvements,
            "epsilon_progress_rate": self.epsilon_progress_rate(),
            "hypervolume": hv,
            "front_size": 0 if self._front is None else len(self._front),
            "throughput": self.throughput(now=now),
            "pending": self._pending,
            "running": self._running,
            "in_flight_mean": self.in_flight.time_average(until=now)
            if self.in_flight.count
            else 0.0,
            "latency": {
                "count": self.latency.count,
                "mean": self.latency.mean,
                "max": (
                    self.latency.maximum if self.latency.count else 0.0
                ),
                **quantiles,
            },
            "operator_probabilities": dict(self.operator_probabilities),
            "counters": dict(self.counters),
            "trajectory": list(self._trajectory),
        }
