"""Failure-injection simulation: master-slave throughput under churn.

At 62,976 cores (Ranger) worker failures are routine, and the
asynchronous master-slave topology degrades gracefully: a dead worker
simply stops requesting work, shrinking effective P, while the
synchronous topology *stalls a whole generation* waiting for a result
that will never arrive unless the master re-issues it.  This module
extends the §IV-B simulation model with worker mean-time-between-
failures / repair times, quantifying both effects (the paper does not
study failures; see DESIGN.md §7).

Failure semantics:

* a worker fails after an Exponential(mtbf) up-time, losing whatever
  evaluation it was running (the master re-generates on demand);
* it recovers after an Exponential(repair) down-time, if ``repair`` is
  finite, and asks the master for fresh work; with ``repair=None`` (or
  ``math.inf``) failures are permanent and a fully-dead pool ends the
  run at the last death.

The model runs on an event heap, the same FIFO-master clockwork as
:mod:`repro.models.fastsim`; with no failures it reproduces
:func:`~repro.models.simmodel.simulate_async` exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from ..stats.timing import TimingModel, TimingSampler

__all__ = [
    "ChaosSummary",
    "FaultyOutcome",
    "simulate_async_with_failures",
    "summarize_run",
    "throughput_degradation",
]

#: Event kinds on the churn heap.
_ARRIVE, _END, _FAIL, _REPAIR = range(4)


@dataclass(frozen=True)
class ChaosSummary:
    """One row of the measured-vs-modeled chaos report.

    A common schema for a real chaos-injected backend run (see
    :func:`summarize_run`) and a failure-injected simulation (see
    :meth:`FaultyOutcome.summary`), so ``repro chaos`` can lay both out
    side by side.
    """

    source: str
    elapsed: float
    nfe: int
    processors: int
    failures: int
    recoveries: int
    lost_or_redispatched: int

    @property
    def throughput(self) -> float:
        """Completed evaluations per second (wall or virtual)."""
        return self.nfe / self.elapsed if self.elapsed > 0 else 0.0

    def as_row(self) -> tuple:
        return (
            self.source,
            self.processors,
            self.nfe,
            self.elapsed,
            self.throughput,
            self.failures,
            self.recoveries,
            self.lost_or_redispatched,
        )


def summarize_run(result, source: str = "measured") -> ChaosSummary:
    """Summarize a :class:`~repro.parallel.ParallelRunResult`.

    Duck-typed so :mod:`repro.models` needs no import of
    :mod:`repro.parallel`: any object with ``elapsed``, ``nfe``,
    ``processors``, ``failures_detected``, ``tasks_redispatched`` and a
    ``faults.workers_respawned`` counter qualifies.
    """
    return ChaosSummary(
        source=source,
        elapsed=float(result.elapsed),
        nfe=int(result.nfe),
        processors=int(result.processors),
        failures=int(result.failures_detected),
        recoveries=int(result.faults.workers_respawned),
        lost_or_redispatched=int(result.tasks_redispatched),
    )


def throughput_degradation(baseline: ChaosSummary, faulty: ChaosSummary) -> float:
    """Fractional throughput loss of ``faulty`` relative to ``baseline``.

    0.0 means no degradation, 0.25 means the faulty run completed
    evaluations 25% slower; NaN when the baseline throughput is zero.
    """
    if baseline.throughput <= 0:
        return float("nan")
    return 1.0 - faulty.throughput / baseline.throughput


@dataclass(frozen=True)
class FaultyOutcome:
    """Result of one failure-injected asynchronous simulation."""

    elapsed: float
    nfe: int
    processors: int
    failures: int
    recoveries: int
    #: Evaluations lost mid-flight to failures.
    lost_evaluations: int
    #: Time-averaged number of live workers.
    mean_live_workers: float

    def efficiency(self, serial_time: float) -> float:
        if self.elapsed <= 0:
            return float("nan")
        return serial_time / (self.processors * self.elapsed)

    def summary(self, source: str = "simulated") -> ChaosSummary:
        """This outcome in the shared measured-vs-modeled schema."""
        return ChaosSummary(
            source=source,
            elapsed=self.elapsed,
            nfe=self.nfe,
            processors=self.processors,
            failures=self.failures,
            recoveries=self.recoveries,
            lost_or_redispatched=self.lost_evaluations,
        )


def simulate_async_with_failures(
    processors: int,
    max_nfe: int,
    timing: TimingModel,
    mtbf: float,
    repair: Optional[float] = None,
    seed: Optional[int] = None,
) -> FaultyOutcome:
    """Asynchronous master-slave simulation with worker churn.

    Parameters
    ----------
    mtbf:
        Mean worker up-time (seconds of virtual time); Exponential.
        ``math.inf`` means no failures.
    repair:
        Mean down-time before the worker rejoins; ``None`` or
        ``math.inf`` means failures are permanent.

    When every worker has died permanently before ``max_nfe``
    evaluations complete, the partial run is reported: ``elapsed`` is
    the time of the last death and ``mean_live_workers`` is averaged
    over ``[0, elapsed]``.

    The run is one heap of ``(time, seq, kind, worker, epoch)`` events
    (arrival at the master, end of service, failure, repair) plus a
    FIFO deque of workers waiting for the master.  A failure bumps the
    worker's epoch, so its pending arrival, service end or queue slot
    is skipped when reached; a failure during service frees the master
    at that instant.  TA and TC are drawn when the master is granted,
    TF when service ends.  The ``seed + 0xFA17`` generator draws each
    worker's first failure at t = 0 in worker order and, at each
    failure instant, that worker's next failure and then its repair (a
    permanent death draws neither).
    """
    if processors < 2:
        raise ValueError("need at least 2 processors")
    if max_nfe < 1:
        raise ValueError("max_nfe must be >= 1")
    if not mtbf > 0:
        raise ValueError("mtbf must be positive (math.inf: no failures)")
    if repair is not None and not repair >= 0:
        raise ValueError("repair must be None or >= 0")
    permanent = repair is None or repair == math.inf

    # Costs come from the same per-component streams as the no-failure
    # model; failures and repairs draw from their own generator.
    sampler = TimingSampler(timing, seed)
    frng = np.random.default_rng(None if seed is None else seed + 0xFA17)
    workers = processors - 1
    epoch = [0] * workers
    up = [True] * workers
    # True until a worker's first service after (re)joining ends: that
    # service is a dispatch (TA + TC) that returns no result.
    fresh = [True] * workers
    waiting: deque = deque()
    holder = -1
    heap: list = []
    seq = 0
    now = 0.0
    nfe = failures = recoveries = 0
    live = workers
    live_integral = 0.0
    last_change = 0.0

    def arrive(w: int) -> None:
        """Worker ``w`` asks the master for work at ``now``."""
        nonlocal holder, seq
        if holder >= 0:
            waiting.append((w, epoch[w]))
            return
        holder = w
        if fresh[w]:
            hold = sampler.ta() + sampler.tc()
        else:
            hold = sampler.tc() + sampler.ta() + sampler.tc()
        heappush(heap, (now + hold, seq, _END, w, epoch[w]))
        seq += 1

    def release() -> None:
        """Free the master and grant it to the first live waiter."""
        nonlocal holder
        holder = -1
        while waiting:
            w, ep = waiting.popleft()
            if ep == epoch[w]:
                arrive(w)
                return

    for w in range(workers):
        heappush(heap, (0.0, seq, _ARRIVE, w, 0))
        heappush(heap, (frng.exponential(mtbf), seq + 1, _FAIL, w, 0))
        seq += 2

    while heap:
        now, _, kind, w, ep = heappop(heap)
        if kind == _ARRIVE:
            if ep == epoch[w]:
                arrive(w)
        elif kind == _END:
            if ep != epoch[w]:
                continue  # the holder failed mid-service
            if fresh[w]:
                fresh[w] = False
            else:
                nfe += 1
                if nfe >= max_nfe:
                    break
            release()
            heappush(heap, (now + sampler.tf(), seq, _ARRIVE, w, ep))
            seq += 1
        elif kind == _FAIL:
            failed = up[w]
            if failed:
                # The in-flight evaluation is lost.
                failures += 1
                up[w] = False
                epoch[w] += 1
                live_integral += live * (now - last_change)
                last_change = now
                live -= 1
                if holder == w:
                    release()
                if permanent:
                    if live == 0:
                        break  # the whole pool is dead
                    continue
            # The clock runs on while the worker is down; a failure drawn
            # then is skipped.
            heappush(heap, (now + frng.exponential(mtbf), seq, _FAIL, w, 0))
            seq += 1
            if failed:
                heappush(
                    heap, (now + frng.exponential(repair), seq, _REPAIR, w, 0)
                )
                seq += 1
        else:  # _REPAIR: rejoin with a fresh dispatch
            recoveries += 1
            up[w] = True
            fresh[w] = True
            live_integral += live * (now - last_change)
            last_change = now
            live += 1
            arrive(w)

    elapsed = float(now)
    live_integral += live * (elapsed - last_change)
    mean_live = live_integral / elapsed if elapsed > 0 else 0.0

    return FaultyOutcome(
        elapsed=elapsed,
        nfe=nfe,
        processors=processors,
        failures=failures,
        recoveries=recoveries,
        lost_evaluations=failures,
        mean_live_workers=mean_live,
    )
